package main

// Example runs the demo end to end; go test checks its printed output.
func Example() {
	main()
	// Output:
	// t=  0s  local users seize 30 nodes (KOALA discovers this only by polling)
	// t= 25s  job= 2 procs  cluster: used=18 background=30 idle=20
	// t= 50s  job=30 procs  cluster: used=30 background=30 idle= 8
	// t= 75s  job=30 procs  cluster: used=30 background=30 idle= 8
	// t=100s  job=30 procs  cluster: used=30 background=30 idle= 8
	// t=125s  job=30 procs  cluster: used=30 background=30 idle= 8
	// t=150s  local users leave
	// t=150s  job=30 procs  cluster: used=30 background= 0 idle=38
	// t=175s  job=46 procs  cluster: used=46 background= 0 idle=22
	// t=200s  job=46 procs  cluster: used=46 background= 0 idle=22
	// t=225s  job=46 procs  cluster: used=46 background= 0 idle=22
	// t=250s  job=46 procs  cluster: used=46 background= 0 idle=22
	// t=275s  job= 0 procs  cluster: used= 0 background= 0 idle=68
	// t=300s  job= 0 procs  cluster: used= 0 background= 0 idle=68
	// t=325s  job= 0 procs  cluster: used= 0 background= 0 idle=68
	// t=350s  job= 0 procs  cluster: used= 0 background= 0 idle=68
	// t=375s  job= 0 procs  cluster: used= 0 background= 0 idle=68
	// t=400s  job= 0 procs  cluster: used= 0 background= 0 idle=68
	//
	// job finished at t=272s
	// while local users were active it never exceeded 30 procs
	// (68 nodes − 30 background − 8 growth reserve = 30 available for growth);
	// after they left it grew towards its own maximum of 46.
}
