package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// topology: 3 operators, 7 tasks, 4 MC-trees (min size 3)
	// PPA plan (sa, budget 4): 4 replicas, predicted OF 0.500
	// actively replicated tasks: [0 1 4 6]
	//
	// recovery after the correlated failure at t=30.3s:
	//   events[0] (active): detected 35.0s, recovered 35.2s, latency 0.20s
	//   events[1] (active): detected 35.0s, recovered 35.2s, latency 0.20s
	//   events[2] (checkpoint): detected 35.0s, recovered 35.5s, latency 0.52s
	//   events[3] (checkpoint): detected 35.0s, recovered 35.6s, latency 0.59s
	//   window-agg[0] (active): detected 35.0s, recovered 35.2s, latency 0.22s
	//   window-agg[1] (checkpoint): detected 35.0s, recovered 35.8s, latency 0.83s
	//   global-agg[0] (active): detected 35.0s, recovered 35.2s, latency 0.20s
}
