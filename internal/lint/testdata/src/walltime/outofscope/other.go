// Fixture type-checked under repro/other: not a deterministic package,
// so wall-clock use only taints its function and is not reported here.
package other

import "time"

func fine() time.Time {
	time.Sleep(time.Millisecond)
	return time.Now()
}
