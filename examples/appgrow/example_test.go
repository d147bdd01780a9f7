package main

// Example runs the demo end to end; go test checks its printed output.
func Example() {
	main()
	// Output:
	// t= 60s  application asked for +8 processors, obtained 8 (now 10 planned)
	// t= 90s  a rigid 12-processor job arrives and is placed
	// t=120s  application asked for +16 processors, obtained 10 (now 20 planned)
	//
	// application-initiated grow requests granted by the manager: 2
	// job finished at t=321s having reached 20 processors
}
