package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzTraceRead feeds arbitrary bytes to ReadVersioned. It must never
// panic, and any input it accepts must re-encode through Writer and re-read
// to the same events: each event marshals to the same JSON as before, so
// only what the format cannot carry (an empty list versus an absent one)
// may change.
func FuzzTraceRead(f *testing.F) {
	var sample bytes.Buffer
	w := NewWriter(&sample)
	for _, e := range sampleEvents() {
		if err := w.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte(`{"cos_trace_schema":1}` + "\n" + `{"seq":3,"stage_ns":{"rx_decode":5},"probe":{"evm":[0.5,-0]}}`))
	f.Add([]byte(`{"seq":0,"control_subcarriers":[],"measured_snr_db":-1e-300}`))
	f.Add([]byte("{\"seq\":0}\nnot json\n"))
	f.Add([]byte(`{"cos_trace_schema":2}{"seq":1}[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _, err := ReadVersioned(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf strings.Builder
		w := NewWriter(&buf)
		if err := w.WriteHeader(); err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if err := w.Write(e); err != nil {
				t.Fatalf("re-encoding an accepted event: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, version, err := ReadVersioned(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-reading the re-encoded trace: %v\n%s", err, buf.String())
		}
		if version != SchemaVersion || len(again) != len(events) {
			t.Fatalf("re-read %d events at schema %d, want %d at %d", len(again), version, len(events), SchemaVersion)
		}
		for i := range events {
			a, errA := json.Marshal(events[i])
			b, errB := json.Marshal(again[i])
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Fatalf("event %d changed on re-read:\n%s (%v)\n%s (%v)", i, a, errA, b, errB)
			}
		}
	})
}
