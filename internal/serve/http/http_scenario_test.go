package servehttp_test

// Scenario plumbing through the HTTP API: the GET /scenarios listing, the
// typed invalid_scenario rejection, and end-to-end jobs running non-default
// worlds (the hybrid BSC/PEC outdoor channel and the OFDM-padding
// embedding) with deterministic content-addressed results.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"cos/internal/serve"
	"cos/internal/serve/client"
	servehttp "cos/internal/serve/http"
	"cos/internal/serve/store"
)

// TestScenariosEndpoint pins GET /scenarios: 200, sorted deterministic
// JSON matching the registry snapshot, built-in presets present with their
// components made explicit.
func TestScenariosEndpoint(t *testing.T) {
	srv, c := startAPI(t, serve.Config{Shards: 1})
	_ = srv

	resp, err := http.Get(c.BaseURL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /scenarios = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	var got []servehttp.ScenarioInfo
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}

	// The endpoint serves exactly the registry snapshot...
	want, err := json.MarshalIndent(servehttp.Scenarios(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(bytes.TrimRight(body, "\n")) != string(want) {
		t.Fatalf("GET /scenarios body drifted from servehttp.Scenarios():\n got: %s\nwant: %s", body, want)
	}

	// ...which is sorted, contains the built-ins, and spells defaults out.
	wantNames := []string{"default", "hybrid-bscpec", "mobile", "ofdm-padding", "pulse"}
	if len(got) != len(wantNames) {
		t.Fatalf("got %d scenarios, want %d: %+v", len(got), len(wantNames), got)
	}
	for i, name := range wantNames {
		if got[i].Name != name {
			t.Errorf("scenario[%d] = %q, want %q (sorted order)", i, got[i].Name, name)
		}
		if got[i].Channel == "" || got[i].Embedding == "" {
			t.Errorf("scenario %q has implicit components: %+v", name, got[i])
		}
	}
	if got[4].Name != "pulse" || got[4].Interferer != "pulse" || len(got[4].Params) != 3 {
		t.Errorf("pulse preset = %+v, want interferer=pulse with 3 default params", got[4])
	}
}

// TestSubmitUnknownScenario pins the typed rejection: an unregistered
// scenario name is a 400 with code invalid_scenario, not a generic
// invalid_spec.
func TestSubmitUnknownScenario(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 1})

	body := []byte(`{"kind":"link","packets":1,"scenario":"no-such-world"}`)
	resp, err := http.Post(c.BaseURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var envelope servehttp.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != servehttp.CodeInvalidScenario {
		t.Fatalf("error code = %q, want %q (message %q)",
			envelope.Error.Code, servehttp.CodeInvalidScenario, envelope.Error.Message)
	}
}

// TestSubmitRejectsUnbuildableScenario sends references that parse and
// name a known scenario but carry parameters its components reject. Each
// must get the typed 400 at admission, and none may reach the WAL.
func TestSubmitRejectsUnbuildableScenario(t *testing.T) {
	var bodies []string
	for _, ref := range []string{"hybrid-bscpec:-1,2,-5", "pulse:0,0,0"} {
		bodies = append(bodies, `{"kind":"link","packets":1,"scenario":"`+ref+`"}`)
	}
	assertScenarioRefused(t, bodies)
}

// TestSubmitRefusesSilenceFigureUnderPadding: a figure that measures
// silences cannot run under the OFDM-padding embedding, so both its whole-
// figure and its per-task specs get the typed 400 at admission and never
// reach the WAL; a channel-only figure under the same scenario runs.
func TestSubmitRefusesSilenceFigureUnderPadding(t *testing.T) {
	assertScenarioRefused(t, []string{
		`{"kind":"figure","figure":"fig9","scale":0.05,"scenario":"ofdm-padding"}`,
		`{"kind":"figure_task","figure":"fig9","task":0,"scale":0.05,"scenario":"ofdm-padding"}`,
	})

	_, c := startAPI(t, serve.Config{Shards: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, serve.Spec{Kind: serve.KindFigure, Figure: "fig3", Scale: 0.05, Scenario: "ofdm-padding"}, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("fig3 under ofdm-padding: state = %s (err %q), want done", final.State, final.Error)
	}
}

// assertScenarioRefused submits each spec body to a fresh WAL-backed
// server, expects a 400 with code invalid_scenario for every one, and
// checks that the reopened WAL holds none of them.
func assertScenarioRefused(t *testing.T, bodies []string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, c := startAPI(t, serve.Config{Shards: 1, Store: st})

	for _, body := range bodies {
		resp, err := http.Post(c.BaseURL+"/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var envelope servehttp.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, resp.StatusCode)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if envelope.Error.Code != servehttp.CodeInvalidScenario {
			t.Errorf("%s: error code = %q (message %q), want %q",
				body, envelope.Error.Code, envelope.Error.Message, servehttp.CodeInvalidScenario)
		}
	}

	srv.Drain(5 * time.Second)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rec := reopened.Recovery(); len(rec.Pending)+len(rec.Completed)+len(rec.Failed) != 0 {
		t.Fatalf("WAL holds rejected specs: %+v", rec)
	}
}

// TestScenarioJobsEndToEnd runs the two new worlds through the full serve
// stack by scenario name and proves their results are deterministic and
// content-addressed: resubmitting the same spec is a cache hit on the same
// digest with a byte-identical body.
func TestScenarioJobsEndToEnd(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 2})
	ctx := context.Background()

	for _, scen := range []string{"hybrid-bscpec", "ofdm-padding"} {
		spec := serve.Spec{Kind: serve.KindLink, Seed: 5, Packets: 3, PayloadBytes: 256, Scenario: scen}

		st, err := c.Submit(ctx, spec, client.SubmitOptions{})
		if err != nil {
			t.Fatalf("%s: %v", scen, err)
		}
		final, err := c.Wait(ctx, st.ID)
		if err != nil {
			t.Fatalf("%s: %v", scen, err)
		}
		if final.State != "done" {
			t.Fatalf("%s: state = %s (err %q), want done", scen, final.State, final.Error)
		}
		body1, err := c.ResultBytes(ctx, st.ID)
		if err != nil {
			t.Fatalf("%s: %v", scen, err)
		}

		// Resubmit: the content-addressed cache must serve the identical
		// body for the identical spec digest.
		st2, err := c.Submit(ctx, spec, client.SubmitOptions{})
		if err != nil {
			t.Fatalf("%s resubmit: %v", scen, err)
		}
		if st2.Digest != st.Digest {
			t.Fatalf("%s: resubmitted digest %s != %s", scen, st2.Digest, st.Digest)
		}
		final2, err := c.Wait(ctx, st2.ID)
		if err != nil {
			t.Fatalf("%s resubmit: %v", scen, err)
		}
		if final2.State != "done" {
			t.Fatalf("%s resubmit: state = %s, want done", scen, final2.State)
		}
		body2, err := c.ResultBytes(ctx, st2.ID)
		if err != nil {
			t.Fatalf("%s resubmit: %v", scen, err)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("%s: resubmitted result differs from the first run", scen)
		}
	}
}

// TestScenarioDigestCollapsesDefaults proves the wire-level back-compat
// rule end-to-end: a spec without a scenario field and the same spec
// naming "default" explicitly resolve to the same job digest.
func TestScenarioDigestCollapsesDefaults(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 1})
	ctx := context.Background()

	bare := serve.Spec{Kind: serve.KindLink, Seed: 9, Packets: 1, PayloadBytes: 64}
	explicit := bare
	explicit.Scenario = "default"

	st1, err := c.Submit(ctx, bare, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Submit(ctx, explicit, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Digest != st2.Digest {
		t.Fatalf("digest with scenario \"default\" = %s, without = %s; want equal", st2.Digest, st1.Digest)
	}
}
