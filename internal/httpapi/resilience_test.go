package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"evsdb/internal/cluster"
	"evsdb/internal/db"
	"evsdb/internal/storage"
	"evsdb/internal/types"
)

func postJSON(t *testing.T, client *http.Client, u string, out any) (int, http.Header) {
	t.Helper()
	resp, err := client.Post(u, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestIdempotentRetryHTTP: resending a write with the same client/seq
// returns the original reply and applies the increment once.
func TestIdempotentRetryHTTP(t *testing.T) {
	srv := newServer(t)
	u := srv.URL + "/add?key=ctr&delta=1&client=c1&seq=1"

	var first, second WriteResult
	if code, _ := postJSON(t, srv.Client(), u, &first); code != http.StatusOK {
		t.Fatalf("first: %d", code)
	}
	if code, _ := postJSON(t, srv.Client(), u, &second); code != http.StatusOK {
		t.Fatalf("retry: %d", code)
	}
	if first.GreenSeq != second.GreenSeq {
		t.Fatalf("retry green seq %d != original %d", second.GreenSeq, first.GreenSeq)
	}

	resp, err := srv.Client().Get(srv.URL + "/get?key=ctr&level=strict")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr ReadResult
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Value != "1" {
		t.Fatalf("counter %q after retry, want 1 (double apply)", rr.Value)
	}
}

// TestKeyedWriteNeedsSeq: a client id without a valid sequence number is
// a 400, not a silent unkeyed write.
func TestKeyedWriteNeedsSeq(t *testing.T) {
	srv := newServer(t)
	for _, q := range []string{"client=c1", "client=c1&seq=0", "client=c1&seq=x"} {
		code, _ := postJSON(t, srv.Client(), srv.URL+"/set?key=k&value=v&"+q, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", q, code)
		}
	}
}

// TestOverloadAnswers503AndDegradedReadsSurvive: with the admission gate
// saturated by a write stalled on a partitioned (NonPrim) replica,
// further writes answer 503 + Retry-After immediately, while weak and
// dirty reads keep answering — the degraded-mode matrix of DESIGN.md.
func TestOverloadAnswers503AndDegradedReadsSurvive(t *testing.T) {
	c, err := cluster.New(3, cluster.WithSyncPolicy(storage.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ids := c.IDs()
	if err := c.WaitPrimary(10*time.Second, ids...); err != nil {
		t.Fatal(err)
	}

	// Seed a key while the cluster is whole so the degraded reads below
	// have something to find.
	whole := httptest.NewServer(New(c.Replica(ids[0]).Engine, Config{}))
	code, _ := postJSON(t, whole.Client(), whole.URL+"/set?key=seeded&value=v1", nil)
	whole.Close()
	if code != http.StatusOK {
		t.Fatalf("seed write: %d", code)
	}
	// The reply says the write is green at ids[0]; the replica isolated
	// below may not have applied it yet, and once cut off it only holds
	// the write as non-green, which weak reads do not see.
	iso := ids[2]
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.Replica(iso).DB.QueryGreen(db.Get("seeded"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("seed write never turned green at the replica to isolate")
		}
		time.Sleep(time.Millisecond)
	}

	// Isolate the last replica: it drops to NonPrim, where strict writes
	// stall until the partition heals.
	c.Partition([]types.ServerID{ids[0], ids[1]}, []types.ServerID{iso})
	if err := c.WaitNonPrim(10*time.Second, iso); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(c.Replica(iso).Engine, Config{
		MaxInFlight: 1,
		Timeout:     time.Minute,
	}))
	t.Cleanup(srv.Close)

	// Occupy the only admission slot with a write that cannot finish.
	stalled := make(chan int, 1)
	go func() {
		code, _ := postJSON(t, srv.Client(), srv.URL+"/set?key=k&value=v", nil)
		stalled <- code
	}()
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := srv.Client().Get(srv.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled write never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The next write must be refused promptly with a retry hint, well
	// within any reasonable request deadline.
	start := time.Now()
	resp, err := srv.Client().Post(srv.URL+"/set?key=k2&value=v", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded write: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("overload answer took %v", elapsed)
	}

	// Weak and dirty reads bypass admission and the NonPrim state.
	for _, level := range []string{"weak", "dirty"} {
		resp, err := srv.Client().Get(srv.URL + "/get?key=seeded&level=" + level)
		if err != nil {
			t.Fatal(err)
		}
		var rr ReadResult
		err = json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Found || rr.Value != "v1" {
			t.Fatalf("%s read on NonPrim replica: %+v", level, rr)
		}
	}

	// Heal; the stalled write completes once the replica rejoins the
	// primary component.
	c.Heal()
	select {
	case code := <-stalled:
		if code != http.StatusOK {
			t.Fatalf("stalled write finished %d", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("stalled write never completed after heal")
	}
}

// FuzzRequestDecode feeds arbitrary query strings to every decoding
// endpoint: the handler must answer something (a 4xx for garbage) and
// never panic. The seed corpus covers each parameter's happy path and
// known-tricky encodings.
func FuzzRequestDecode(f *testing.F) {
	c, err := cluster.New(1, cluster.WithSyncPolicy(storage.SyncNone))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Close)
	ids := c.IDs()
	if err := c.WaitPrimary(10*time.Second, ids...); err != nil {
		f.Fatal(err)
	}
	h := New(c.Replica(ids[0]).Engine, Config{Timeout: 5 * time.Second})

	seeds := []string{
		"key=k&value=v",
		"key=k&delta=5",
		"key=k&delta=-9223372036854775808",
		"key=k&value=v&ts=9",
		"key=k&level=strict",
		"key=k&level=weak",
		"key=k&level=dirty",
		"key=k&value=v&client=c1&seq=1",
		"key=k&value=v&client=c1&seq=18446744073709551615",
		"key=k&value=v&client=&seq=1",
		"key=%00&value=%ff",
		"key=k&value=v&seq=1",
		"client=c1&seq=abc&key=k&value=v",
		"key=k;value=v",
		"key=k&key=k2&value=v",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	paths := []struct{ method, path string }{
		{http.MethodPost, "/set"},
		{http.MethodPost, "/add"},
		{http.MethodPost, "/tsset"},
		{http.MethodGet, "/get"},
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		if len(rawQuery) > 4096 {
			t.Skip("oversized query")
		}
		if _, err := url.ParseQuery(rawQuery); err != nil {
			// Still exercise the handler: it must tolerate queries the
			// stdlib refuses to parse.
			rawQuery = url.QueryEscape(rawQuery)
		}
		for _, p := range paths {
			target := fmt.Sprintf("%s?%s", p.path, rawQuery)
			req := httptest.NewRequest(p.method, "http://replica"+strings.ReplaceAll(target, " ", "%20"), nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code == 0 {
				t.Fatalf("%s %s: no status written", p.method, target)
			}
		}
	})
}
