package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// topology 1: 6 operators, 10 tasks
	//   resources          dp-OF         sa-OF     greedy-OF
	//   0.25               0.507         0.000         0.402
	//   0.50               0.866         0.000         0.866
	//   0.75               0.925         0.925         0.925
	//   1.00               1.000         1.000         1.000
	//   adapting 0.25 -> 0.50: start 2 new replicas, stop 0
	//
	// topology 2: 5 operators, 9 tasks
	//   resources          dp-OF         sa-OF     greedy-OF
	//   0.25               0.000         0.000         0.000
	//   0.50               0.641         0.641         0.641
	//   0.75               0.839         0.839         0.839
	//   1.00               1.000         1.000         1.000
	//   adapting 0.25 -> 0.50: start 5 new replicas, stop 0
	//
	// topology 3: 5 operators, 11 tasks
	//   resources          dp-OF         sa-OF     greedy-OF
	//   0.25               0.000         0.000         0.000
	//   0.50               0.747         0.747         0.747
	//   0.75               0.747         0.747         0.747
	//   1.00               1.000         1.000         1.000
	//   adapting 0.25 -> 0.50: start 6 new replicas, stop 0
	//
	// greedy with budget 3 picks [0 1 3] -> worst-case OF 0.402 (no complete MC-tree)
}
