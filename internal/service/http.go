package service

import (
	"encoding/json"
	"errors"
	"net/http"

	"yashme/internal/workload"
)

// WorkloadInfo is one registry row of the /v1/workloads listing: the
// benchmark's identity and its paper metadata, enough for a client to
// build a valid selection without reading the source.
type WorkloadInfo struct {
	Name       string   `json:"name"`
	Order      int      `json:"order"`
	ModelCheck bool     `json:"model_check"`
	Tags       []string `json:"tags,omitempty"`
	Table5Seed int64    `json:"table5_seed,omitempty"`
	// PaperPrefix/PaperBaseline echo the Table 5 counts the paper reports.
	PaperPrefix       int `json:"paper_prefix,omitempty"`
	PaperBaseline     int `json:"paper_baseline,omitempty"`
	BenignCrashPoints int `json:"benign_crash_points,omitempty"`
}

// maxRequestBytes bounds a POST /v1/jobs body. A request is a selection of
// names, tags and variants, a few hundred bytes in practice.
const maxRequestBytes = 1 << 20

// NewHandler builds the service's HTTP API over a manager:
//
//	POST   /v1/jobs             submit a Request (?wait=1 blocks until terminal)
//	GET    /v1/jobs/{id}        job status, result embedded once terminal
//	GET    /v1/jobs/{id}/result the run's canonical suite.Result JSON, verbatim
//	DELETE /v1/jobs/{id}        cancel (idempotent on terminal jobs)
//	GET    /v1/workloads        the registry with tags and paper metadata
//	GET    /healthz             liveness
//	GET    /metrics             jobs by state, cache, budget, engine counters
//
// Errors are {"error": "..."} JSON: 400 for invalid requests, 404 for
// unknown jobs, 413 for a submission body over maxRequestBytes, 429 when
// the queue is full, 503 while shutting down.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			code := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, err)
			return
		}
		job, err := m.Submit(req)
		if err != nil {
			writeError(w, codeFor(err), err)
			return
		}
		if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
			select {
			case <-job.Done():
			case <-r.Context().Done():
			}
		}
		st := job.Status()
		code := http.StatusAccepted
		if st.State.Terminal() {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, codeFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})

	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, codeFor(err), err)
			return
		}
		st := job.Status()
		if len(st.Result) == 0 {
			writeError(w, http.StatusNotFound, errors.New("job has no result (yet)"))
			return
		}
		// The stored bytes go out untouched: this is the byte-identity
		// endpoint, comparable to a fresh run's Canonical JSON with cmp.
		w.Header().Set("Content-Type", "application/json")
		w.Write(st.Result)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, codeFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		specs := workload.All()
		infos := make([]WorkloadInfo, len(specs))
		for i, s := range specs {
			infos[i] = WorkloadInfo{
				Name:              s.Name,
				Order:             s.Order,
				ModelCheck:        s.ModelCheck,
				Tags:              s.Tags,
				Table5Seed:        s.Table5Seed,
				PaperPrefix:       s.PaperPrefix,
				PaperBaseline:     s.PaperBaseline,
				BenignCrashPoints: s.BenignCrashPoints,
			}
		}
		writeJSON(w, http.StatusOK, infos)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Metrics())
	})

	return mux
}

func codeFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
