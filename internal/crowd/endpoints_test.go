package crowd

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// renderEndpoints prints the table the README's "HTTP API" section
// carries between its endpoints:begin / endpoints:end markers.
func renderEndpoints() string {
	var b strings.Builder
	b.WriteString("| Path | Methods | Auth | Class | Cluster routing |\n|---|---|---|---|---|\n")
	for _, e := range Endpoints() {
		auth := "—"
		if e.Auth {
			auth = "API key"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", e.Path, strings.Join(e.Methods, ", "), auth, e.Class, e.Route)
	}
	return b.String()
}

// TestREADMEEndpointTable keeps the README's HTTP API table and
// Endpoints() equal, in both directions: a row added, dropped or edited
// on either side fails until the other follows.
func TestREADMEEndpointTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- endpoints:begin -->\n", "<!-- endpoints:end -->"
	_, rest, ok := strings.Cut(string(readme), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("README.md has no %q … %q block", strings.TrimSpace(begin), end)
	}
	if want := renderEndpoints(); got != want {
		t.Fatalf("README.md HTTP API table is out of date; it should read:\n%s\nbut reads:\n%s", want, got)
	}
}

// TestEveryEndpointIsMounted: each row is served (never 404), under its
// own path only once, and the unlisted remainder of /api/v1 is 404.
func TestEveryEndpointIsMounted(t *testing.T) {
	srv := NewServer()
	seen := make(map[string]bool)
	for _, e := range Endpoints() {
		if seen[e.Path] {
			t.Errorf("%s is declared twice", e.Path)
		}
		seen[e.Path] = true
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(e.Methods[0], e.Path, strings.NewReader("{}")))
		if rec.Code == http.StatusNotFound {
			t.Errorf("%s %s is not mounted", e.Methods[0], e.Path)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/nope", strings.NewReader("{}")))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unlisted path answered %d, want 404", rec.Code)
	}
}

// zeros is an endless request body.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestGuardCapsUndeclaredBody: a body that does not declare its length
// (chunked) is cut off at the cap by the one wrapper every tier shares,
// and the read failure maps to 413. A body of exactly the cap passes.
func TestGuardCapsUndeclaredBody(t *testing.T) {
	var status int
	var read int64
	h := Endpoints()[1].Guard(func(w http.ResponseWriter, r *http.Request) {
		var err error
		read, err = io.Copy(io.Discard, r.Body)
		status = http.StatusOK
		if err != nil {
			status = BodyErrStatus(err)
		}
	})
	for _, tc := range []struct {
		size int64
		want int
	}{{MaxBodyBytes, http.StatusOK}, {MaxBodyBytes + 1, http.StatusRequestEntityTooLarge}} {
		req := httptest.NewRequest(http.MethodPost, PathFuncEvalUpload, io.LimitReader(zeros{}, tc.size))
		req.ContentLength = -1
		h(httptest.NewRecorder(), req)
		if status != tc.want || read != MaxBodyBytes {
			t.Errorf("%d-byte chunked body: status %d after %d bytes, want %d after %d", tc.size, status, read, tc.want, int64(MaxBodyBytes))
		}
	}
	if got := BodyErrStatus(io.ErrUnexpectedEOF); got != http.StatusBadRequest {
		t.Errorf("a truncated body maps to %d, want 400", got)
	}
}
