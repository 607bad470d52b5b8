package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"yashme/internal/engine"
)

func newTestServer(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	m := newTestManager(t, Config{Jobs: 1, Budget: engine.NewBudget(2)})
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(srv.Close)
	return m, srv
}

func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read: %v", method, url, err)
	}
	return resp.StatusCode, data
}

// The API surface, table-driven: codes and body shape per endpoint.
func TestHandlerEndpoints(t *testing.T) {
	_, srv := newTestServer(t)

	// One completed job everything else can poke at (?wait=1 blocks until
	// terminal, so the response is the full done-state status).
	code, body := do(t, "POST", srv.URL+"/v1/jobs?wait=1", `{"names":["svc-probe"],"variants":["races"]}`)
	if code != http.StatusOK {
		t.Fatalf("POST wait=1: code %d body %.300s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("POST body: %v", err)
	}
	if st.State != StateDone || st.ID == "" || len(st.Result) == 0 {
		t.Fatalf("POST wait=1 status = %+v, want done with a result", st)
	}

	for _, tc := range []struct {
		name, method, path, body string
		wantCode                 int
		wantIn                   string // substring the body must contain
	}{
		{"submit async", "POST", "/v1/jobs", `{"names":["svc-probe"],"variants":["races"]}`, http.StatusOK, `"state"`},
		{"submit bad json", "POST", "/v1/jobs", `{"names":`, http.StatusBadRequest, "error"},
		{"submit unknown field", "POST", "/v1/jobs", `{"bogus":1}`, http.StatusBadRequest, "error"},
		// The engine fast-path toggles are gone from the request; a client
		// still sending one gets an error, not a silently default run.
		{"submit removed toggle", "POST", "/v1/jobs", `{"names":["svc-probe"],"no_checkpoint":true}`, http.StatusBadRequest, "no_checkpoint"},
		{"submit unknown tag", "POST", "/v1/jobs", `{"tags":["nope"]}`, http.StatusBadRequest, "unknown tag"},
		{"submit unknown workload", "POST", "/v1/jobs", `{"names":["nope"]}`, http.StatusBadRequest, "unknown workload"},
		{"get job", "GET", "/v1/jobs/" + st.ID, "", http.StatusOK, `"state": "done"`},
		{"get job result", "GET", "/v1/jobs/" + st.ID + "/result", "", http.StatusOK, `"benchmarks"`},
		{"get missing job", "GET", "/v1/jobs/zzz", "", http.StatusNotFound, "no such job"},
		{"get missing result", "GET", "/v1/jobs/zzz/result", "", http.StatusNotFound, "no such job"},
		{"cancel terminal job", "DELETE", "/v1/jobs/" + st.ID, "", http.StatusOK, `"state": "done"`},
		{"cancel missing job", "DELETE", "/v1/jobs/zzz", "", http.StatusNotFound, "no such job"},
		{"workloads", "GET", "/v1/workloads", "", http.StatusOK, `"svc-probe"`},
		{"healthz", "GET", "/healthz", "", http.StatusOK, `"ok"`},
		{"metrics", "GET", "/metrics", "", http.StatusOK, `"budget_size"`},
		{"bad method", "PUT", "/v1/jobs", "", http.StatusMethodNotAllowed, ""},
		{"bad path", "GET", "/v1/nope", "", http.StatusNotFound, ""},
	} {
		code, body := do(t, tc.method, srv.URL+tc.path, tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: code %d, want %d (body %.200s)", tc.name, code, tc.wantCode, body)
		}
		if tc.wantIn != "" && !bytes.Contains(body, []byte(tc.wantIn)) {
			t.Errorf("%s: body missing %q: %.300s", tc.name, tc.wantIn, body)
		}
	}
}

// A submission body may be at most maxRequestBytes long: one byte more gets
// 413 with the usual error body, while a body at the limit still reaches
// the decoder's 400 for an unknown field.
func TestHandlerBodyLimit(t *testing.T) {
	m := newTestManager(t, Config{Jobs: 1, Budget: engine.NewBudget(1)})
	h := NewHandler(m)
	const req = `{"bogus":1}`
	for _, tc := range []struct {
		name     string
		size     int
		wantCode int
		wantIn   string
	}{
		{"at limit", maxRequestBytes, http.StatusBadRequest, "unknown field"},
		{"over limit", maxRequestBytes + 1, http.StatusRequestEntityTooLarge, "too large"},
	} {
		body := strings.Repeat(" ", tc.size-len(req)) + req
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: body is not an error object: %v (%.200s)", tc.name, err, rec.Body.Bytes())
		}
		if rec.Code != tc.wantCode || !strings.Contains(e["error"], tc.wantIn) {
			t.Errorf("%s: code %d error %q, want %d containing %q", tc.name, rec.Code, e["error"], tc.wantCode, tc.wantIn)
		}
	}
}

// The /result endpoint serves the stored body verbatim: a cache-hit job's
// bytes equal the fresh job's, over HTTP.
func TestHandlerResultByteIdentity(t *testing.T) {
	m, srv := newTestServer(t)

	submit := func() JobStatus {
		code, body := do(t, "POST", srv.URL+"/v1/jobs?wait=1", `{"names":["svc-probe"],"variants":["races"]}`)
		if code != http.StatusOK {
			t.Fatalf("POST: code %d body %.300s", code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("status: %v", err)
		}
		return st
	}
	fresh := submit()
	hit := submit()
	if fresh.CacheHit || !hit.CacheHit {
		t.Fatalf("cache hits: fresh %v, repeat %v; want false/true", fresh.CacheHit, hit.CacheHit)
	}

	_, freshBody := do(t, "GET", srv.URL+"/v1/jobs/"+fresh.ID+"/result", "")
	_, hitBody := do(t, "GET", srv.URL+"/v1/jobs/"+hit.ID+"/result", "")
	if !bytes.Equal(freshBody, hitBody) {
		t.Fatal("cache-hit result bytes differ from the fresh run's")
	}
	if mm := m.Metrics(); mm.Cache.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", mm.Cache.Hits)
	}
}

// Cancelling over HTTP mirrors Manager.Cancel: the running job lands in
// state cancelled with its partial result.
func TestHandlerCancel(t *testing.T) {
	m, srv := newTestServer(t)
	started := armSlow(t)
	open := gateSlow(t)

	code, body := do(t, "POST", srv.URL+"/v1/jobs", `{"names":["svc-slow"],"variants":["races"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: code %d body %.300s", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status: %v", err)
	}
	<-started

	if code, body = do(t, "DELETE", srv.URL+"/v1/jobs/"+st.ID, ""); code != http.StatusOK {
		t.Fatalf("DELETE: code %d body %.300s", code, body)
	}
	// The DELETE handler returns as soon as cancellation is requested; the
	// job, whose recoveries were held until now, drains at its next
	// scenario boundary.
	open()
	job, err := m.Job(st.ID)
	if err != nil {
		t.Fatalf("job %s: %v", st.ID, err)
	}
	<-job.Done()
	if final := job.Status(); final.State != StateCancelled {
		t.Fatalf("state %s, want cancelled (err %q)", final.State, final.Error)
	} else if len(final.Result) == 0 {
		t.Fatal("cancelled job kept no partial result")
	}
}
