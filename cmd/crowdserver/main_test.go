package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer collects the daemon's stderr; the test reads it while the
// process is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one run of the built binary.
type daemon struct {
	cmd  *exec.Cmd
	logs *syncBuffer
	url  string
}

// startDaemon launches the binary on a free localhost port over dataDir
// and waits until /api/v1/readyz answers 200.
func startDaemon(t *testing.T, bin, dataDir string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{logs: new(syncBuffer), url: "http://" + addr}
	d.cmd = exec.Command(bin, "-addr", addr, "-data", dataDir, "-quiet", "-flush", "1h")
	d.cmd.Stderr = d.logs
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := http.Get(d.url + "/api/v1/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("daemon never became ready:\n%s", d.logs)
	return nil
}

// stop sends SIGTERM and expects a clean exit that flushed state.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\n%s", err, d.logs)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM:\n%s", d.logs)
	}
	if !strings.Contains(d.logs.String(), "state flushed") {
		t.Fatalf("no \"state flushed\" line:\n%s", d.logs)
	}
}

func (d *daemon) post(t *testing.T, path, key, body string, out interface{}) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, d.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Api-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d %s", path, resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("POST %s reply %q: %v", path, b, err)
	}
}

// TestDaemonStoresAndReloads is the daemon's smoke test: start → ready →
// register and upload over HTTP → SIGTERM drains and flushes → a second
// start on the same -data loads what the first one stored.
func TestDaemonStoresAndReloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := filepath.Join(t.TempDir(), "crowdserver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	data := filepath.Join(t.TempDir(), "data")

	d := startDaemon(t, bin, data)
	var reg struct {
		APIKey string `json:"api_key"`
	}
	d.post(t, "/api/v1/register", "", `{"username":"alice"}`, &reg)
	var up struct {
		IDs []string `json:"ids"`
	}
	sample := `{"tuning_problem_name":"demo","task_parameters":{"t":1},"tuning_parameters":{"x":%g},"evaluation_result":%g}`
	d.post(t, "/api/v1/func_eval/upload", reg.APIKey,
		`{"func_evals":[`+fmt.Sprintf(sample, 0.25, 1.5)+`,`+fmt.Sprintf(sample, 0.75, 0.5)+`]}`, &up)
	if len(up.IDs) != 2 {
		t.Fatalf("upload stored ids %v, want 2", up.IDs)
	}
	d.stop(t)
	if _, err := os.Stat(filepath.Join(data, "logs", "func_evals")); err != nil {
		t.Fatalf("no log directory under -data: %v", err)
	}

	d = startDaemon(t, bin, data)
	if !strings.Contains(d.logs.String(), "loaded 2 documents into func_evals") {
		t.Fatalf("restart did not report the stored samples:\n%s", d.logs)
	}
	var q struct {
		FuncEvals []struct {
			Output float64 `json:"evaluation_result"`
		} `json:"func_evals"`
	}
	d.post(t, "/api/v1/func_eval/query", reg.APIKey, `{"tuning_problem_name":"demo"}`, &q)
	if len(q.FuncEvals) != 2 || q.FuncEvals[0].Output != 1.5 || q.FuncEvals[1].Output != 0.5 {
		t.Fatalf("query after restart = %+v, want both samples back", q.FuncEvals)
	}
	d.stop(t)
}
