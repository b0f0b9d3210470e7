package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminEndpointSmoke is the admin-endpoint smoke: start the admin
// server on a loopback port, scrape /metrics, and assert the exposition
// is well-formed (HELP/TYPE headers, expected samples, cumulative
// histogram), then poke expvar and pprof.
func TestAdminEndpointSmoke(t *testing.T) {
	r := NewRegistry()
	r.Counter("smoke_requests_total", "requests", L("tier", "full")).Add(3)
	r.Gauge("smoke_loss", "train loss").Set(0.25)
	h := r.Histogram("smoke_latency_seconds", "latency", []float64{0.01, 0.1}, L("tier", "full"))
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	a, err := ServeAdmin("127.0.0.1:0", AdminOptions{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	base := "http://" + a.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# HELP smoke_requests_total requests",
		"# TYPE smoke_requests_total counter",
		`smoke_requests_total{tier="full"} 3`,
		"# TYPE smoke_loss gauge",
		"smoke_loss 0.25",
		"# TYPE smoke_latency_seconds histogram",
		`smoke_latency_seconds_bucket{tier="full",le="0.01"} 1`,
		`smoke_latency_seconds_bucket{tier="full",le="0.1"} 2`,
		`smoke_latency_seconds_bucket{tier="full",le="+Inf"} 3`,
		`smoke_latency_seconds_count{tier="full"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Every non-comment line must be `name{…} value` with a parseable value.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := fmt.Sscanf(fields[1], "%g", new(float64)); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
	}

	if code, body := get(t, base+"/debug/vars"); code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars status %d, body %.80q", code, body)
	}
	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, body := get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index status %d, body %.80q", code, body)
	}
	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

// fakeDumper is a TraceDumper returning a canned JSON body.
type fakeDumper struct{ body string }

func (f *fakeDumper) WriteJSON(w io.Writer) error {
	_, err := io.WriteString(w, f.body)
	return err
}

// TestAdminRouteTable drives every admin route through GET and POST,
// checking status, explicit Content-Type, and the Allow header on 405.
// The admin endpoint is strictly read-only; even /debug/pprof/symbol
// (whose upstream handler accepts POST) rejects non-GET here.
func TestAdminRouteTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("route_requests_total", "requests").Add(1)
	a, err := ServeAdmin("127.0.0.1:0", AdminOptions{
		Registry: r,
		Traces:   &fakeDumper{body: `{"retained":1,"dropped":0,"traces":[]}` + "\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	base := "http://" + a.Addr()
	cl := &http.Client{Timeout: 5 * time.Second}

	routes := []struct {
		path        string
		contentType string // "" = handler-chosen, not asserted
		bodyHas     string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "route_requests_total 1"},
		{"/debug/vars", "application/json; charset=utf-8", "memstats"},
		{"/debug/traces", "application/json; charset=utf-8", `"retained":1`},
		{"/debug/pprof/", "", "goroutine"},
		{"/debug/pprof/cmdline", "", ""},
		{"/", "text/plain; charset=utf-8", "/debug/traces"},
	}
	for _, rt := range routes {
		t.Run("GET"+rt.path, func(t *testing.T) {
			resp, err := cl.Get(base + rt.path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200", resp.StatusCode)
			}
			if rt.contentType != "" && resp.Header.Get("Content-Type") != rt.contentType {
				t.Fatalf("Content-Type %q, want %q", resp.Header.Get("Content-Type"), rt.contentType)
			}
			if rt.bodyHas != "" && !strings.Contains(string(body), rt.bodyHas) {
				t.Fatalf("body missing %q:\n%.200s", rt.bodyHas, body)
			}
		})
		t.Run("POST"+rt.path, func(t *testing.T) {
			resp, err := cl.Post(base+rt.path, "text/plain", strings.NewReader("x"))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status %d, want 405", resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
				t.Fatalf("Allow %q, want GET", allow)
			}
		})
	}
}

// TestAdminTracesNilDumper: /debug/traces without a recorder serves an
// empty, valid dump rather than 404ing (dashboards stay wired up).
func TestAdminTracesNilDumper(t *testing.T) {
	a, err := ServeAdmin("127.0.0.1:0", AdminOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	code, body := get(t, "http://"+a.Addr()+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if strings.TrimSpace(body) != `{"retained":0,"dropped":0,"traces":[]}` {
		t.Fatalf("body %q, want empty dump", body)
	}
}

func TestServeAdminNilRegistry(t *testing.T) {
	a, err := ServeAdmin("127.0.0.1:0", AdminOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	code, body := get(t, "http://"+a.Addr()+"/metrics")
	if code != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Fatalf("nil-registry /metrics: status %d body %q, want 200 and empty", code, body)
	}
}
