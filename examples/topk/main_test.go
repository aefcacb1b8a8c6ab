package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// Q1: hierarchical top-100 over the access log (4 operators, 21 tasks)
	// baseline: 100 entries in the top-100 at batch 43
	// resources 0.2: predicted OF 0.125, tentative top-100 accuracy 0.130
	// resources 0.4: predicted OF 0.250, tentative top-100 accuracy 0.250
	// resources 0.6: predicted OF 0.500, tentative top-100 accuracy 0.480
	// resources 0.8: predicted OF 0.750, tentative top-100 accuracy 0.740
	// sample tentative entries at 0.4 resources: [obj-00000 obj-00001 obj-00008 obj-00009 obj-00016]
}
