package coord

import (
	"testing"
)

// FuzzCoordDecodeFrame feeds arbitrary bytes to the protocol frame
// decoder. decodeFrame sits behind the length-capped line reader on
// every worker and coordinator connection, so it must reject anything
// that is not exactly one typed JSON object — and must never panic,
// whatever a broken or hostile peer writes. Accepted frames must
// re-encode: acceptance of a frame the encoder cannot round-trip
// would mean the two ends disagree about the protocol.
func FuzzCoordDecodeFrame(f *testing.F) {
	// Seed with every frame type the protocol actually sends, plus
	// the malformed shapes the decoder rejects.
	for _, m := range []*message{
		{Type: msgHello, Version: ProtoVersion},
		{Type: msgJob, Job: 1},
		{Type: msgAssign, Job: 1},
		{Type: msgHeartbeat},
		{Type: msgResult, Job: 1},
		{Type: msgError, Job: 1, Error: "boom"},
		{Type: msgCancel, Job: 1},
		{Type: msgShutdown},
	} {
		frame, err := encodeFrame(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"type":"hello"}{"type":"hello"}` + "\n"))
	f.Add([]byte(`{"type":"result","states":[{"sketch":"AAAA"}]}` + "\n"))
	f.Add([]byte(`[1,2,3]` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeFrame(data)
		if err != nil {
			return
		}
		if m.Type == "" {
			t.Fatal("accepted a frame without a type")
		}
		if _, err := encodeFrame(m); err != nil {
			t.Fatalf("accepted frame cannot be re-encoded: %v", err)
		}
	})
}
