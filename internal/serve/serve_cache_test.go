package serve

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"cos/internal/obs"
	"cos/internal/serve/cache"
	"cos/internal/serve/store"
)

func readAll(t *testing.T, j *Job) []byte {
	t.Helper()
	b, err := io.ReadAll(j.Result())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheHitServesIdenticalBytes is the tentpole's core contract: a
// repeat submission of the same spec is served from the cache — born
// terminal, never queued — with a byte-identical NDJSON stream.
func TestCacheHitServesIdenticalBytes(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Shards: 1, Metrics: reg, Cache: cache.New(0)})

	first, err := s.Submit(fastLinkSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if waitTerminal(t, first, 30*time.Second).State != "done" {
		t.Fatalf("first run failed: %q", first.Err())
	}
	cold := readAll(t, first)

	// Same spec modulo normalization: defaults explicit, position folded.
	respec := fastLinkSpec(7)
	respec.Position = "b"
	respec.Seed = 7
	second, err := s.Submit(respec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached() {
		t.Fatal("repeat submission missed the cache")
	}
	if second.ID() == first.ID() {
		t.Fatal("cache hit reused the first job's ID")
	}
	st := second.Status()
	if st.State != "done" || !st.Terminal || !st.Cached || st.StartedAt != nil {
		t.Fatalf("cached job status = %+v", st)
	}
	if st.Digest != first.Digest() || st.Digest == "" {
		t.Fatalf("digest mismatch: %q vs %q", st.Digest, first.Digest())
	}
	select {
	case <-second.Done():
	default:
		t.Fatal("cached job's Done channel is open")
	}
	if warm := readAll(t, second); !bytes.Equal(cold, warm) {
		t.Fatalf("cache served different bytes:\ncold %d bytes\nwarm %d bytes", len(cold), len(warm))
	}

	snap := reg.Snapshot()
	if got := snap["serve_cache_hits_total"]; got != 1 {
		t.Errorf("serve_cache_hits_total = %v, want 1", got)
	}
	if got := snap["serve_cache_misses_total"]; got != 1 {
		t.Errorf("serve_cache_misses_total = %v, want 1", got)
	}

	evs := eventsOfType(s.Journal().Snapshot(0), EventJobCached)
	if len(evs) != 1 || evs[0].Job != second.ID() {
		t.Fatalf("job_cached events = %+v", evs)
	}
	var ce CachedEvent
	decodeInto(t, evs[0], &ce)
	if ce.Digest != first.Digest() || ce.ResultBytes != len(cold) {
		t.Fatalf("cached payload = %+v", ce)
	}
}

// TestNoCacheMeansEverySubmissionRuns pins the opt-in: without a cache the
// determinism guarantee is exercised by real recomputation.
func TestNoCacheMeansEverySubmissionRuns(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	for i := 0; i < 2; i++ {
		j, err := s.Submit(fastLinkSpec(3))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j, 30*time.Second)
		if j.Cached() {
			t.Fatal("job reported cached with caching disabled")
		}
	}
}

func TestIdempotencyKeyReturnsSameJob(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1})
	j1, err := s.SubmitWith(fastLinkSpec(9), SubmitOptions{IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.SubmitWith(fastLinkSpec(9), SubmitOptions{IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatalf("idempotent retry admitted a second job: %s vs %s", j1.ID(), j2.ID())
	}
	// A different key is a fresh submission even for the same spec.
	j3, err := s.SubmitWith(fastLinkSpec(9), SubmitOptions{IdempotencyKey: "retry-2"})
	if err != nil {
		t.Fatal(err)
	}
	if j3 == j1 {
		t.Fatal("distinct keys collapsed onto one job")
	}
}

func TestJobAndResultByDigest(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Cache: cache.New(0)})
	j, err := s.Submit(fastLinkSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.JobByDigest(j.Digest())
	if err != nil || got != j {
		t.Fatalf("JobByDigest = %v, %v", got, err)
	}
	if _, err := s.JobByDigest("no-such-digest"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown digest error = %v, want ErrUnknownJob", err)
	}
	waitTerminal(t, j, 30*time.Second)
	body, ok := s.ResultByDigest(j.Digest())
	if !ok || !bytes.Equal(body, readAll(t, j)) {
		t.Fatalf("ResultByDigest = %d bytes, %v", len(body), ok)
	}
	if _, ok := s.ResultByDigest(slowLinkSpec().Digest()); ok {
		t.Fatal("ResultByDigest returned a body for a spec that never ran")
	}
}

// TestStoreRecoveryAcrossRestart is the durability contract end to end at
// the core layer: a "crashed" server (drain window 0 cancels its queued
// work, so no terminal records are written) restarted on the same data
// directory re-serves completed digests byte-identically and re-runs the
// interrupted submission.
func TestStoreRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st1})
	done, err := s1.Submit(fastLinkSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	if waitTerminal(t, done, 30*time.Second).State != "done" {
		t.Fatalf("seed job failed: %q", done.Err())
	}
	coldBody := readAll(t, done)
	interrupted, err := s1.Submit(slowLinkSpec())
	if err != nil {
		t.Fatal(err)
	}
	s1.Drain(0) // window 0: the slow job is cancelled, like a crash
	if st := interrupted.State(); st != StateCancelled {
		t.Fatalf("interrupted job = %v, want cancelled", st)
	}
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st2})
	defer s2.Drain(10 * time.Second)

	// The completed digest serves byte-identically, without re-running.
	body, ok := s2.ResultByDigest(done.Digest())
	if !ok || !bytes.Equal(body, coldBody) {
		t.Fatalf("restarted ResultByDigest = %d bytes, %v; want the original %d", len(body), ok, len(coldBody))
	}
	resub, err := s2.Submit(fastLinkSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	if !resub.Cached() {
		t.Fatal("resubmission after restart missed the recovered cache")
	}
	if !bytes.Equal(readAll(t, resub), coldBody) {
		t.Fatal("recovered cache served different bytes")
	}

	// The interrupted submission was re-admitted under a fresh ID.
	requeued, err := s2.JobByDigest(interrupted.Digest())
	if err != nil {
		t.Fatalf("interrupted digest not re-admitted: %v", err)
	}
	if requeued.Cached() || requeued.State().Terminal() && requeued.State() != StateDone {
		t.Fatalf("requeued job state = %v, cached=%v", requeued.State(), requeued.Cached())
	}

	evs := s2.Journal().Snapshot(0)
	var sre StoreRecoveredEvent
	recovered := eventsOfType(evs, EventStoreRecovered)
	if len(recovered) != 1 {
		t.Fatalf("store_recovered events = %+v", recovered)
	}
	decodeInto(t, recovered[0], &sre)
	if sre.Completed != 1 || sre.Requeued != 1 || sre.CacheWarmed != 1 {
		t.Fatalf("store_recovered payload = %+v", sre)
	}
	if jr := eventsOfType(evs, EventJobRecovered); len(jr) != 1 || jr[0].Job != requeued.ID() {
		t.Fatalf("job_recovered events = %+v", jr)
	}
	// Cancel rather than wait out the million-packet job; its cancellation
	// writes no record, so it would simply replay again — the semantics
	// this test already proved.
	s2.Cancel(requeued.ID())
}

// TestFailedJobsSettleAcrossRestart: a deadline-failed job writes a
// settled marker, so a restart neither re-runs nor serves it.
func TestFailedJobsSettleAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st1})
	spec := slowLinkSpec()
	spec.TimeoutMS = 30
	j, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st.State != "failed" {
		t.Fatalf("state = %s, want failed", st.State)
	}
	s1.Drain(5 * time.Second)
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovery()
	if len(rec.Failed) != 1 || len(rec.Pending) != 0 || len(rec.Completed) != 0 {
		t.Fatalf("recovery after failure = %+v, want one settled digest", rec)
	}
	s2 := New(Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0), Store: st2})
	defer s2.Drain(5 * time.Second)
	if _, err := s2.JobByDigest(j.Digest()); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("failed digest was re-admitted: %v", err)
	}
	if _, ok := s2.ResultByDigest(j.Digest()); ok {
		t.Fatal("failed digest has a servable result")
	}
}

// TestResultStreamEndsAfterFinishHooks: a client that reads a job's result
// stream to EOF and then resubmits its spec must find the cache populated,
// so finish ends the stream only after its hooks (persistTerminal among
// them) have run.
func TestResultStreamEndsAfterFinishHooks(t *testing.T) {
	j := &Job{buf: newBuffer(), state: StateRunning, done: make(chan struct{})}
	j.buf.Write([]byte("{\"type\":\"x\"}\n"))
	r := j.Result()
	ran := false
	j.finish(StateDone, "", func() {
		ran = true
		j.buf.mu.Lock()
		ended := j.buf.closed
		j.buf.mu.Unlock()
		if ended {
			t.Error("result stream ended before the finish hook ran")
		}
		select {
		case <-j.Done():
			t.Error("Done closed before the finish hook ran")
		default:
		}
	})
	if !ran {
		t.Fatal("finish did not run its hook")
	}
	got, err := io.ReadAll(r)
	if err != nil || string(got) != "{\"type\":\"x\"}\n" {
		t.Fatalf("result stream after finish = %q, %v", got, err)
	}
}
