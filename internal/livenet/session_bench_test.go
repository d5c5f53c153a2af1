package livenet

import (
	"testing"

	"bdps/internal/msg"
	"bdps/internal/vtime"
)

// BenchmarkSessionResume measures the broker-side cost of one session
// resume against a full replay ring: scanning the retained deliveries
// past the client's token and gating each on its deadline — the work
// handleResume does under the session lock, minus the socket writes
// (the slots already hold the stamped wire frames).
func BenchmarkSessionResume(b *testing.B) {
	m := &msg.Message{
		ID: 1, Publisher: 100, Ingress: 0,
		Published: 0, Allowed: vtime.Hour, SizeKB: 1,
		Attrs:   msg.NumAttrs(map[string]float64{"A1": 1, "A2": 2}),
		Payload: make([]byte, 1024),
	}
	tmpl, err := msg.AppendDataFrame(nil, 0, 0, 1, m)
	if err != nil {
		b.Fatal(err)
	}
	s := new(session)
	for i := 0; i < sessionRingDefault; i++ {
		s.record(tmpl, 0, vtime.Hour)
	}
	token := uint64(sessionRingDefault / 2) // half the ring replays

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames := 0
		replayed, _ := s.replay(token, 0, func(f []byte) {
			if len(f) > 0 {
				frames++
			}
		})
		if replayed != sessionRingDefault-int(token) || frames != replayed {
			b.Fatalf("replayed %d (%d frames), want %d", replayed, frames, sessionRingDefault-int(token))
		}
	}
}
