package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"schedsearch/internal/policy"
)

// TestServerErrorPaths is the table-driven sweep of every error
// response: each hostile request must produce the right status and a
// structured {"error","code"} body — never a 500, never a stack trace.
func TestServerErrorPaths(t *testing.T) {
	f := newFixture(t, 8, policy.FCFSBackfill())
	// Occupy ID 7 for the duplicate case.
	if w, resp := f.do(t, "POST", "/v1/jobs", `{"id":7,"nodes":1,"runtime_s":60}`); w.Code != http.StatusCreated {
		t.Fatalf("seed submit: %d %v", w.Code, resp)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad-json", "POST", "/v1/jobs", `{"nodes":`, http.StatusBadRequest, "bad_json"},
		{"wrong-type", "POST", "/v1/jobs", `{"nodes":"eight"}`, http.StatusBadRequest, "bad_json"},
		{"not-json", "POST", "/v1/jobs", `nodes=8`, http.StatusBadRequest, "bad_json"},
		{"empty-body", "POST", "/v1/jobs", ``, http.StatusBadRequest, "bad_json"},
		{"zero-nodes", "POST", "/v1/jobs", `{"nodes":0,"runtime_s":10}`, http.StatusBadRequest, "invalid_job"},
		{"too-wide", "POST", "/v1/jobs", `{"nodes":9,"runtime_s":10}`, http.StatusBadRequest, "invalid_job"},
		{"negative-runtime", "POST", "/v1/jobs", `{"nodes":1,"runtime_s":-5}`, http.StatusBadRequest, "invalid_job"},
		{"negative-id", "POST", "/v1/jobs", `{"id":-3,"nodes":1,"runtime_s":10}`, http.StatusBadRequest, "invalid_job"},
		{"huge-request", "POST", "/v1/jobs", `{"nodes":1,"runtime_s":10,"request_s":9200000000000000000}`, http.StatusBadRequest, "invalid_job"},
		{"duplicate-id", "POST", "/v1/jobs", `{"id":7,"nodes":1,"runtime_s":10}`, http.StatusConflict, "duplicate_id"},
		{"oversized-body", "POST", "/v1/jobs",
			`{"nodes":1,"runtime_s":10,"pad":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`,
			http.StatusRequestEntityTooLarge, "body_too_large"},
		{"unknown-job", "GET", "/v1/jobs/999", "", http.StatusNotFound, "unknown_job"},
		{"non-numeric-id", "GET", "/v1/jobs/abc", "", http.StatusBadRequest, "bad_job_id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, resp := f.do(t, tc.method, tc.path, tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("%s %s: status %d %v, want %d", tc.method, tc.path, w.Code, resp, tc.wantStatus)
			}
			if resp["code"] != tc.wantCode {
				t.Fatalf("%s %s: code %v, want %q", tc.method, tc.path, resp["code"], tc.wantCode)
			}
			if msg, ok := resp["error"].(string); !ok || msg == "" {
				t.Fatalf("%s %s: missing error message in %v", tc.method, tc.path, resp)
			} else if strings.Contains(msg, "goroutine") || strings.Contains(msg, ".go:") {
				t.Fatalf("%s %s: error message leaks internals: %q", tc.method, tc.path, msg)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s %s: Content-Type %q", tc.method, tc.path, ct)
			}
		})
	}
}

// TestServerSubmitAfterDrain: once draining, submissions get a
// structured 503 with code "draining".
func TestServerSubmitAfterDrain(t *testing.T) {
	f := newFixture(t, 4, policy.FCFSBackfill())
	if w, _ := f.do(t, "POST", "/v1/drain", ""); w.Code != http.StatusAccepted {
		t.Fatal("drain not accepted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		w, resp := f.do(t, "POST", "/v1/jobs", `{"nodes":1,"runtime_s":10}`)
		if w.Code == http.StatusServiceUnavailable {
			if resp["code"] != "draining" {
				t.Fatalf("code %v, want draining", resp["code"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during drain: %d, want 503", w.Code)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerClientAssignedID: a client-supplied ID is honored and
// reported back; the engine's auto-assigned IDs skip past it.
func TestServerClientAssignedID(t *testing.T) {
	f := newFixture(t, 8, policy.FCFSBackfill())
	w, resp := f.do(t, "POST", "/v1/jobs", `{"id":41,"nodes":1,"runtime_s":60}`)
	if w.Code != http.StatusCreated || resp["id"] != float64(41) {
		t.Fatalf("client-ID submit: %d %v", w.Code, resp)
	}
	w, resp = f.do(t, "POST", "/v1/jobs", `{"nodes":1,"runtime_s":60}`)
	if w.Code != http.StatusCreated || resp["id"] != float64(42) {
		t.Fatalf("auto-ID submit after client ID: %d %v, want id 42", w.Code, resp)
	}
}

// TestServerPanicRecovery: a handler panic becomes a generic 500 JSON
// body; the panic value and stack never reach the client.
func TestServerPanicRecovery(t *testing.T) {
	f := newFixture(t, 4, policy.FCFSBackfill())
	f.srv.mux.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("secret internal state")
	})
	w := httptest.NewRecorder()
	f.srv.ServeHTTP(w, httptest.NewRequest("GET", "/v1/boom", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	body := w.Body.String()
	if strings.Contains(body, "secret") || strings.Contains(body, "goroutine") {
		t.Fatalf("panic details leaked: %q", body)
	}
	_, resp := f.do(t, "GET", "/v1/metrics", "")
	if resp["policy"] != "FCFS-backfill" {
		t.Fatalf("server unusable after recovered panic: %v", resp)
	}
}
