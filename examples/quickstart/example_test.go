package main

// Example runs the demo end to end; go test checks its printed output.
func Example() {
	main()
	// Output:
	// t=  60s  grid: left 64/64 | right 0/32       job-0=46 procs (running)  job-1=16 procs (running)  job-2=2 procs (running)
	// t= 120s  grid: left 64/64 | right 0/32       job-0=46 procs (running)  job-1=16 procs (running)  job-2=2 procs (running)
	// t= 180s  grid: left 64/64 | right 0/32       job-0=46 procs (running)  job-1=18 procs (running)  job-2=0 procs (finished)
	// t= 240s  grid: left 64/64 | right 0/32       job-0=46 procs (running)  job-1=18 procs (running)  job-2=0 procs (finished)
	// t= 300s  grid: left 42/64 | right 0/32       job-0=0 procs (finished)  job-1=18 procs (running)  job-2=0 procs (finished)
	// t= 360s  grid: left 0/64 | right 0/32        job-0=0 procs (finished)  job-1=0 procs (finished)  job-2=0 procs (finished)
	// t= 420s  grid: left 0/64 | right 0/32        job-0=0 procs (finished)  job-1=0 procs (finished)  job-2=0 procs (finished)
	// t= 480s  grid: left 0/64 | right 0/32        job-0=0 procs (finished)  job-1=0 procs (finished)  job-2=0 procs (finished)
	// t= 540s  grid: left 0/64 | right 0/32        job-0=0 procs (finished)  job-1=0 procs (finished)  job-2=0 procs (finished)
	// t= 600s  grid: left 0/64 | right 0/32        job-0=0 procs (finished)  job-1=0 procs (finished)  job-2=0 procs (finished)
	//
	// job-0: execution 266 s, response 271 s
	// job-1: execution 309 s, response 314 s
	// job-2: execution 120 s, response 125 s
	// grow operations performed by the manager: 5
}
