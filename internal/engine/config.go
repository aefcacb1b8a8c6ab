package engine

import (
	"fmt"

	"repro/internal/sim"
)

// Config is the engine's fault-tolerance configuration: the settings
// the experiments and campaigns vary. Zero fields take the documented
// defaults (applied by withDefaults). The rest of the cost model is
// fixed (see the constants below); the defaults and constants are
// calibrated so that the experiment latencies land in the paper's
// regime (seconds to tens of seconds for the Fig. 6 topology at
// 1000-2000 tuples/s per source task).
type Config struct {
	// ProcRate is each task's processing capacity in tuples per second
	// (default 8000, calibrated to the paper's m1.medium nodes so that
	// replay-driven recovery latencies land in the reported regime).
	// Recovery replay speed is bounded by ProcRate minus the ongoing
	// input rate.
	ProcRate float64
	// HeartbeatInterval drives failure detection (default 5s, §VI). A
	// checkpoint-restored task polls for its failed upstream peers to
	// catch up before its own recovery starts (the §V-B
	// synchronisation) every HeartbeatInterval/20, so the
	// synchronisation cost scales with the failure-detection cadence.
	HeartbeatInterval sim.Time
	// CheckpointInterval is the per-task checkpoint period; 0 disables
	// checkpoints (Storm mode).
	CheckpointInterval sim.Time
	// ReplicaTrimInterval is the period at which a primary acknowledges
	// output progress to its active replica so the replica can trim its
	// output buffer (default 5s). Longer intervals mean more buffered
	// tuples to resend at take-over (§V-B Active Replication).
	ReplicaTrimInterval sim.Time
	// TentativeOutputs enables fabricated batch-over punctuations for
	// failed tasks so the surviving topology keeps producing (§V-B).
	// Tentativeness propagates: a task that processed any fabricated or
	// tentative input emits tentative output, so the taint reaches sinks
	// at any depth, and recovered tasks trigger amendment corrections.
	TentativeOutputs bool
	// WindowBatches is the number of batches covered by the query's
	// sliding window; source-replay recovery replays the unfinished
	// windows, i.e. this many batches back (default 30).
	WindowBatches int
}

// The fixed cost model. DESIGN.md lists the values with their
// calibration.
const (
	// batchInterval is the length of one processing batch in virtual
	// seconds. Batch-over punctuations delimit batches (§V-B).
	batchInterval sim.Time = 1
	// netDelay is the one-hop delivery delay between tasks.
	netDelay sim.Time = 0.05
	// perBatchOverhead is the fixed processing cost per batch.
	perBatchOverhead sim.Time = 0.002
	// checkpointFixed and checkpointByteRate (bytes per second) model
	// snapshot cost: save time = checkpointFixed +
	// bytes/checkpointByteRate.
	checkpointFixed    sim.Time = 0.02
	checkpointByteRate          = 5e6
	// restoreFixed and restoreByteRate model checkpoint loading;
	// restoreFixed includes redeploying the task binary on a standby
	// node.
	restoreFixed    sim.Time = 0.5
	restoreByteRate          = 10e6
	// restartCost is the extra cost of restarting a task from scratch
	// in source-replay recovery.
	restartCost sim.Time = 1
	// replicaActivateCost is the fixed cost of switching a replica's
	// output on.
	replicaActivateCost sim.Time = 0.2
	// resendRate is the rate, in tuples per second, at which buffered
	// tuples are resent and deduplicated during replica take-over;
	// resending is cheaper than processing.
	resendRate = 50000
)

// validate rejects a negative or NaN duration or rate and a negative
// WindowBatches, naming the field. The Config carries command-line
// values (cmd/ppasim), so it is outside input: a negative interval
// would run the clock backwards, and a NaN one compares false against
// every deadline. Zero is valid everywhere — it selects the default.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ProcRate", c.ProcRate},
		{"HeartbeatInterval", float64(c.HeartbeatInterval)},
		{"CheckpointInterval", float64(c.CheckpointInterval)},
		{"ReplicaTrimInterval", float64(c.ReplicaTrimInterval)},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("engine: invalid Config.%s %v: want a non-negative number (0 selects the default)", f.name, f.v)
		}
	}
	if c.WindowBatches < 0 {
		return fmt.Errorf("engine: invalid Config.WindowBatches %d: want a non-negative count (0 selects the default)", c.WindowBatches)
	}
	return nil
}

// recoveryPoll is the period at which a checkpoint-restored task polls
// for its failed upstream peers to catch up (see HeartbeatInterval).
func (c Config) recoveryPoll() sim.Time { return c.HeartbeatInterval / 20 }

func (c Config) withDefaults() Config {
	if c.ProcRate == 0 {
		c.ProcRate = 8000
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 5
	}
	if c.ReplicaTrimInterval == 0 {
		c.ReplicaTrimInterval = 5
	}
	if c.WindowBatches == 0 {
		c.WindowBatches = 30
	}
	return c
}
