package service

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the service's HTTP API (Go 1.22 method+wildcard
// routes, stdlib only):
//
//	GET  /v1/topologies                    — stats for every topology
//	GET  /v1/topologies/{name}             — stats for one topology
//	POST /v1/topologies/{name}/batches     — submit a BatchRequest
//	POST /v1/topologies/{name}/advance     — {"steps": n} manual stepping
//	POST /v1/topologies/{name}/windows     — flush the open window
//
// Everything speaks JSON: each reply is one compact JSON value and a
// newline. Unknown topology → 404, unknown tenant → 403, stopped
// topology → 503, malformed or invalid request → 400, and a reply that
// fails to encode → 500; every error body is {"error": "..."}.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/topologies", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.AllStats())
	})
	mux.HandleFunc("GET /v1/topologies/{name}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Stats(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/topologies/{name}/batches", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := decodeRequest(w, r, &req, scanBatch); err != nil {
			return
		}
		res, err := s.SubmitBatch(r.PathValue("name"), req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeOK(w, &res)
	})
	mux.HandleFunc("POST /v1/topologies/{name}/advance", func(w http.ResponseWriter, r *http.Request) {
		var req advanceRequest
		if err := decodeRequest(w, r, &req, scanAdvance); err != nil {
			return
		}
		step, err := s.Advance(r.PathValue("name"), req.Steps)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeOK(w, advanceReply{Step: step})
	})
	mux.HandleFunc("POST /v1/topologies/{name}/windows", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		tp := s.topology(name)
		if tp == nil {
			writeErr(w, fmt.Errorf("%w: %q", ErrUnknownTopology, name))
			return
		}
		if err := tp.do(func() { tp.eng.FlushWindow() }); err != nil {
			writeErr(w, err)
			return
		}
		writeOK(w, flushReply{Flushed: true})
	})
	return mux
}

// Vars returns the service's expvar view: a map of topology name to
// TopologyStats, computed on demand (each read runs under the
// topology's engine token, so it is always current and race-free). All
// floats inside are finite by construction, which /debug/vars requires.
func (s *Service) Vars() expvar.Var {
	return expvar.Func(func() any {
		out := make(map[string]TopologyStats)
		for _, st := range s.AllStats() {
			out[st.Name] = st
		}
		return out
	})
}

// Publish registers Vars under the given expvar name, once; a second
// service instance reusing the name (tests, restarts within a process)
// is ignored rather than a panic — expvar registration is global and
// permanent by design.
func (s *Service) Publish(name string) {
	if expvar.Get(name) == nil {
		expvar.Publish(name, s.Vars())
	}
}

const maxBodyBytes = 8 << 20

// Reply bodies of the endpoints that answer no stats or batch result.
type (
	advanceReply struct {
		Step int `json:"step"`
	}
	flushReply struct {
		Flushed bool `json:"flushed"`
	}
	errorReply struct {
		Error string `json:"error"`
	}
)

// writeJSON answers status with v as one compact JSON value and a
// newline, sent in a single Write. v is marshalled before the header
// goes out, so a value that fails to encode answers 500 with an error
// body, never a 200 with an empty or cut-off one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorReply{Error: "encode reply: " + err.Error()}) // a string always encodes
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody answers status with body, a JSON value and a newline, in a
// single Write. The headers are assigned under their canonical keys,
// which skips Header.Set's canonicalization; their values share one
// array, each capped so that an Add to either copies it.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	vals := []string{"application/json", strconv.Itoa(len(body))}
	h := w.Header()
	h["Content-Type"] = vals[:1:1]
	h["Content-Length"] = vals[1:2:2]
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client is gone; there is no one to tell
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrUnknownTopology):
		status = http.StatusNotFound
	case errors.Is(err, ErrUnknownTenant):
		status = http.StatusForbidden
	case errors.Is(err, ErrStopped):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorReply{Error: err.Error()})
}
