package main

import (
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/scanio"
	"repro/internal/server/apiv1"
)

// TestSigtermAtListen delivers SIGTERM the moment cabled announces its
// listen address, after it has replayed a snapshot directory. The signal
// handler must already be installed by then: the process drains, saves the
// restored session and exits 0 instead of dying on the default action.
// Several restarts widen the chance of landing in the announcement window.
func TestSigtermAtListen(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM delivery is POSIX-only")
	}
	bin := filepath.Join(t.TempDir(), "cabled")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	snapDir := t.TempDir()

	// Leave one persisted session behind, so each restart replays it.
	p := startCabled(t, bin, snapDir)
	var created apiv1.CreateSessionResponse
	if code := p.post(t, "/v1/sessions", fixtureJSON(t, 6), &created); code != http.StatusCreated {
		p.cmd.Process.Kill()
		t.Fatalf("create: %d", code)
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()

	for run := 0; run < 5; run++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-snapshot-dir", snapDir,
			"-shutdown-timeout", "5s")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		sc := scanio.NewScanner(stderr)
		for sc.Scan() {
			out.WriteString(sc.Text() + "\n")
			if strings.Contains(sc.Text(), "listening on") {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
			}
		}
		exit := make(chan error, 1)
		go func() { exit <- cmd.Wait() }()
		select {
		case err := <-exit:
			if err != nil {
				t.Fatalf("run %d: cabled exited uncleanly: %v\n%s", run, err, out.String())
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("run %d: cabled did not stop after SIGTERM\n%s", run, out.String())
		}
		for _, want := range []string{"restored 1 session(s)", "shutting down", "saved 1 session(s)", "cabled: stopped"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("run %d: stderr lacks %q:\n%s", run, want, out.String())
			}
		}
	}
}
