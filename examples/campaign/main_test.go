package main

// Example runs the program; go test checks what it prints.
func Example() {
	main()
	// Output:
	// topology: 10 ops, 57 tasks; cluster: 43 nodes in 8 racks
	// single     latency mean= 1.61s p95= 6.14s p99= 6.14s  loss mean=0.0005  blast mean=2.0 tasks  unrecovered=0/100
	//            quality tentative mean=0.0050  corrected mean=0.8083  t2c p50= 1.16s p95= 2.75s
	//            slowest recovery: scenario 22 (node-27) at 6.14s
	// k-of-rack  latency mean= 2.03s p95= 6.14s p99= 6.14s  loss mean=0.0007  blast mean=4.2 tasks  unrecovered=0/100
	//            quality tentative mean=0.0083  corrected mean=0.7662  t2c p50= 1.30s p95= 2.78s
	//            slowest recovery: scenario 0 (rack-5/k=5) at 6.14s
	// domain     latency mean= 2.48s p95= 6.14s p99= 6.14s  loss mean=0.0009  blast mean=7.3 tasks  unrecovered=0/100
	//            quality tentative mean=0.0108  corrected mean=0.8458  t2c p50= 1.40s p95= 2.82s
	//            slowest recovery: scenario 0 (rack-5/all) at 6.14s
	// cascade    latency mean= 4.12s p95= 8.08s p99= 8.43s  loss mean=0.0021  blast mean=17.5 tasks  unrecovered=0/100
	//            quality tentative mean=0.0142  corrected mean=0.8800  t2c p50= 1.67s p95= 3.76s
	//            slowest recovery: scenario 43 (cascade[rack-10,rack-9,rack-7,rack-8]) at 8.55s
	//
	// placement head-to-head (whole-domain bursts, full replication):
	// anti-affinity  latency p95= 0.55s  loss p95=0.0325  unrecovered=0/100
	// round-robin    latency p95= 2.60s  loss p95=0.0522  unrecovered=0/100
}
