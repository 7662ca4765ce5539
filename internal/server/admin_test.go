package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/series"
)

func postJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestAdminBackup: POST /admin/backup writes a verifiable backup set and
// reports the manifest; GET is refused; a missing dir parameter is a 400.
func TestAdminBackup(t *testing.T) {
	srv := newServer(t)
	bdir := filepath.Join(t.TempDir(), "bk")

	var body map[string]interface{}
	if code := postJSON(t, srv.URL+"/admin/backup?dir="+bdir, &body); code != 200 {
		t.Fatalf("status %d, body %v", code, body)
	}
	if body["dir"] != bdir || body["manifest"] == nil {
		t.Fatalf("body = %v", body)
	}
	if _, err := lsm.VerifyBackup(bdir); err != nil {
		t.Fatalf("backup does not verify: %v", err)
	}

	if code := getJSON(t, srv.URL+"/admin/backup?dir="+bdir, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET = %d, want 405", code)
	}
	if code := postJSON(t, srv.URL+"/admin/backup", nil); code != http.StatusBadRequest {
		t.Errorf("missing dir = %d, want 400", code)
	}
	// A second backup into the same directory is refused (it already holds
	// a manifest).
	if code := postJSON(t, srv.URL+"/admin/backup?dir="+bdir, nil); code != http.StatusInternalServerError {
		t.Errorf("repeat backup = %d, want 500", code)
	}
}

// TestAdminScrub: POST /admin/scrub runs a pass and reports it; heal and
// maxChunks parameters are honored; GET is refused.
func TestAdminScrub(t *testing.T) {
	srv := newServer(t)

	var rep lsm.ScrubReport
	if code := postJSON(t, srv.URL+"/admin/scrub", &rep); code != 200 {
		t.Fatalf("status %d", code)
	}
	if rep.ChunksChecked == 0 || rep.Partial || !rep.PyramidOK {
		t.Fatalf("report %+v", rep)
	}

	var capped lsm.ScrubReport
	if code := postJSON(t, srv.URL+"/admin/scrub?maxChunks=1", &capped); code != 200 {
		t.Fatalf("status %d", code)
	}
	if capped.ChunksChecked > 1 {
		t.Fatalf("budget ignored: %+v", capped)
	}
	if code := postJSON(t, srv.URL+"/admin/scrub?maxChunks=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bad maxChunks = %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/admin/scrub", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET = %d, want 405", code)
	}
}

// TestHealthzWALAndScrubFields: /healthz reports the durability surfaces —
// WAL state, scrub and backup counters.
func TestHealthzWALAndScrubFields(t *testing.T) {
	srv := newServer(t)
	var body map[string]interface{}
	if code := getJSON(t, srv.URL+"/healthz", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	wal, ok := body["wal"].(map[string]interface{})
	if !ok {
		t.Fatalf("no wal object: %v", body)
	}
	if _, ok := wal["bytes"].(float64); !ok {
		t.Errorf("wal.bytes = %v", wal["bytes"])
	}
	if _, ok := body["scrub"].(map[string]interface{}); !ok {
		t.Errorf("no scrub object: %v", body)
	}
	if _, ok := body["backup"].(map[string]interface{}); !ok {
		t.Errorf("no backup object: %v", body)
	}
}

// TestHealthzTornWALWarning: an engine reopened over a torn WAL tail
// surfaces the truncation warning through /healthz.
func TestHealthzTornWALWarning(t *testing.T) {
	dir := t.TempDir()
	e, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write("s", series.Point{T: 1, V: 1}); err != nil {
		t.Fatal(err)
	}
	e.Kill()
	// Tear the log's tail: a record length claiming more bytes than follow.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7f, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWith(e2, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
		e2.Close()
	})
	var body map[string]interface{}
	if code := getJSON(t, srv.URL+"/healthz", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	wal := body["wal"].(map[string]interface{})
	if wal["tornTruncations"].(float64) != 1 {
		t.Errorf("tornTruncations = %v", wal["tornTruncations"])
	}
	warns, _ := body["warnings"].([]interface{})
	if len(warns) != 1 {
		t.Fatalf("warnings = %v", body["warnings"])
	}
	// A torn tail alone is a normal crash artifact, not degradation.
	if body["status"] != "ok" {
		t.Errorf("status = %v", body["status"])
	}
}

// TestHealthzDegradedOnSetAsideMods: delete-sidecar bytes set aside at
// open — a damaged record, and whatever acknowledged deletes follow it —
// mark the server degraded, with the warning naming the file.
func TestHealthzDegradedOnSetAsideMods(t *testing.T) {
	dir := t.TempDir()
	e, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("s", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "deletes.mods")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWith(e2, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
		e2.Close()
	})
	var body map[string]interface{}
	if code := getJSON(t, srv.URL+"/healthz", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if body["status"] != "degraded" || body["badFiles"].(float64) != 1 {
		t.Errorf("status = %v, badFiles = %v; want degraded, 1", body["status"], body["badFiles"])
	}
	warns, _ := body["warnings"].([]interface{})
	if len(warns) != 1 || !strings.Contains(warns[0].(string), "deletes.mods.bad") {
		t.Errorf("warnings = %v, want the set-aside sidecar named", body["warnings"])
	}
}
