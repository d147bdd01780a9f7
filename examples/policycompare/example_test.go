package main

// Example runs the demo end to end; go test checks its printed output.
func Example() {
	main()
	// Output:
	// Policy comparison on Wm (120 s inter-arrival, all malleable), PRA approach
	// policy      exec(s)    resp(s)   avg-size    stuck@2    ops/run
	// FPSMA         255.0      260.0        7.6        34%      122.0
	// EGS           244.3      249.3        7.6        26%      161.0
	// EQUI          246.1      251.1        7.5        26%      155.0
	// FOLD          269.7      274.7        4.1        25%      144.5
	//
	// EGS spreads growth over all jobs (fewer stuck at the minimum);
	// FPSMA concentrates it on the oldest. EQUI and FOLD are the §III baselines.
}
