package main

// Example runs the demo end to end; go test checks its printed output.
func Example() {
	main()
	// Output:
	// t=200s  long job grown to 46 processors, cluster idle=2
	// t=200s  rigid job needing 8 processors submitted
	// t=240s  rigid job state=running; long job shrunk to 40 processors
	//          mandatory shrink operations so far: 1
	//
	// all jobs done: long exec=269s, rigid exec=68s (wait 30s)
}
