package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// Q2: traffic-jam detection join (6 operators, 25 tasks; O3 is correlated-input)
	// baseline detected 22 jam incidents in 60s
	//
	// plans at 40% replication resources:
	//   sa        predicted OF 0.094, predicted IC 0.145, actual accuracy 0.273
	//   sa-ic     predicted OF 0.047, predicted IC 0.371, actual accuracy 0.091
	//
	// The IC-optimised plan reports high internal completeness but loses
	// the join's incident side, so its actual accuracy collapses; OF models
	// the input correlation and predicts the achievable accuracy (§VI-B).
}
