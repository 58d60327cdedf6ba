package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/fault"
)

func newTestGateway(t *testing.T) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := NewGateway(Config{
		Engine:   parbitonic.Config{Processors: 4, Backend: parbitonic.Native},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewGatewayHandler(g, nil))
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})
	return g, ts
}

// frame builds a v1 request frame around payload.
func frame(t element.Type, payload []byte) []byte {
	return append(FrameHeader(t), payload...)
}

// u32Frame builds a v1 u32 request frame of keys.
func u32Frame(keys []uint32) []byte {
	payload := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint32(payload[4*i:], k)
	}
	return frame(element.TU32, payload)
}

// readU32Frame reads a response body that must be a u32 frame and
// returns its keys.
func readU32Frame(t *testing.T, r io.Reader) []uint32 {
	t.Helper()
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err := decodeFrame(raw)
	if err != nil || typ != element.TU32 || len(payload)%4 != 0 {
		t.Fatalf("response is not a u32 frame: type=%v len=%d err=%v", typ, len(raw), err)
	}
	keys := make([]uint32, len(payload)/4)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(payload[4*i:])
	}
	return keys
}

func postSort(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	return postSortAs(t, url, "application/octet-stream", body)
}

// postSortAs posts body to /sort under the given Content-Type.
func postSortAs(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/sort", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestGatewayBareU32BadMagic: a bare little-endian u32 stream, the
// pre-frame wire format, is refused with the typed bad-magic code. A
// stream whose first key is 0x46534250 ("PBSF" little-endian) has
// exactly one parse: its first eight bytes are a frame header.
func TestGatewayBareU32BadMagic(t *testing.T) {
	_, ts := newTestGateway(t)
	for _, keys := range [][]uint32{
		{9, 2, 7, 2, 0, 1<<31 + 5},
		{0x46534249, 1, 9, 2}, // one below the magic
		{1, 0x46534250, 9, 2}, // the magic, but not first
	} {
		bare := u32Frame(keys)[frameHeaderLen:]
		resp := postSort(t, ts.URL, bare)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bare stream %v: status %d, want 400", keys, resp.StatusCode)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Code != "bad-magic" {
			t.Fatalf("bare stream %v: code %q, want bad-magic (error: %s)", keys, e.Code, e.Error)
		}
	}

	// The old collision: key 0 is the magic and key 1 reads as version
	// 1, type u32, reserved zero, so the rest is a u32 payload.
	collision := u32Frame([]uint32{0x46534250, 1, 9, 2, 7})[frameHeaderLen:]
	resp := postSort(t, ts.URL, collision)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("colliding stream: status %d, want 200", resp.StatusCode)
	}
	if got := readU32Frame(t, resp.Body); !slices.Equal(got, []uint32{2, 7, 9}) {
		t.Fatalf("colliding stream sorted as %v, want the frame payload [2 7 9]", got)
	}
	// With any other second key it is a malformed frame, never a
	// stream of keys.
	resp = postSort(t, ts.URL, u32Frame([]uint32{0x46534250, 5, 9})[frameHeaderLen:])
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Code != "bad-version" {
		t.Fatalf("colliding stream, version byte 5: status %d code %q, want 400 bad-version", resp.StatusCode, e.Code)
	}
}

// FuzzDecodeFrame: every body either fails with a FrameError carrying
// one of decodeFrame's documented codes, or is an 8-byte header that
// FrameHeader reproduces followed by the returned payload.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abc"))
	f.Add(u32Frame([]uint32{0x46534250, 1, 9, 2}))
	f.Add(u32Frame([]uint32{0x46534250, 1, 9, 2})[frameHeaderLen:])
	f.Add(frame(element.TKV64, make([]byte, 16)))
	f.Add([]byte("PBSG\x01\x00\x00\x00"))
	f.Add([]byte("PBSF\x01\x05\x00\x00"))
	f.Add([]byte("PBSF\x01\x00\x00\x01"))
	f.Add([]byte("PBSF\x63\x00\x00\x00"))
	codes := map[string]bool{"truncated-header": true, "bad-magic": true, "bad-version": true, "bad-elem-type": true, "bad-reserved": true}
	f.Fuzz(func(t *testing.T, raw []byte) {
		typ, payload, err := decodeFrame(raw)
		if err != nil {
			var ferr *FrameError
			if !errors.As(err, &ferr) || !codes[ferr.Code] {
				t.Fatalf("decodeFrame(%x) = %v, want a FrameError with a documented code", raw, err)
			}
			return
		}
		if !bytes.Equal(FrameHeader(typ), raw[:frameHeaderLen]) {
			t.Fatalf("decodeFrame(%x) accepted a header that FrameHeader(%v) renders as %x", raw, typ, FrameHeader(typ))
		}
		if !bytes.Equal(payload, raw[frameHeaderLen:]) {
			t.Fatalf("decodeFrame(%x) payload %x, want %x", raw, payload, raw[frameHeaderLen:])
		}
	})
}

// TestGatewayU64Frame round-trips a u64 frame, checking the
// response mirrors the request header, under every spelling of the
// binary media type: parameters and letter case do not matter.
func TestGatewayU64Frame(t *testing.T) {
	_, ts := newTestGateway(t)
	keys := []uint64{1 << 40, 3, ^uint64(0), 7, 3}
	payload := make([]byte, 8*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint64(payload[8*i:], k)
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, ct := range []string{
		"application/octet-stream",
		"application/octet-stream; charset=binary",
		"Application/Octet-Stream",
	} {
		resp := postSortAs(t, ts.URL, ct, frame(element.TU64, payload))
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("Content-Type %q: status %d: %s", ct, resp.StatusCode, msg)
		}
		raw, _ := io.ReadAll(resp.Body)
		gotT, out, err := decodeFrame(raw)
		if err != nil || gotT != element.TU64 {
			t.Fatalf("Content-Type %q: response not a u64 frame: type=%v err=%v", ct, gotT, err)
		}
		for i := range want {
			if got := binary.LittleEndian.Uint64(out[8*i:]); got != want[i] {
				t.Fatalf("Content-Type %q: u64 round-trip wrong at %d: got %d want %d", ct, i, got, want[i])
			}
		}
	}
}

// TestGatewayKV64Frame round-trips records: keys sorted, each payload
// still riding with its key.
func TestGatewayKV64Frame(t *testing.T) {
	_, ts := newTestGateway(t)
	recs := []element.KV64{{K: 50, V: 500}, {K: 10, V: 100}, {K: 30, V: 300}}
	payload := make([]byte, 16*len(recs))
	for i, r := range recs {
		element.Put(payload[16*i:], r)
	}
	resp := postSort(t, ts.URL, frame(element.TKV64, payload))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	gotT, out, err := decodeFrame(raw)
	if err != nil || gotT != element.TKV64 {
		t.Fatalf("response not a kv64 frame: type=%v err=%v", gotT, err)
	}
	want := []element.KV64{{K: 10, V: 100}, {K: 30, V: 300}, {K: 50, V: 500}}
	for i := range want {
		if got := element.Get[element.KV64](out[16*i:]); got != want[i] {
			t.Fatalf("kv64 round-trip wrong at %d: got %v want %v", i, got, want[i])
		}
	}
}

// TestGatewayFrameErrors drives each malformed-frame class and checks
// the typed 400 body carries the machine-readable code.
func TestGatewayFrameErrors(t *testing.T) {
	_, ts := newTestGateway(t)
	badVersion := frame(element.TU32, nil)
	badVersion[4] = 9
	badType := frame(element.TU32, nil)
	badType[5] = 200
	badReserved := frame(element.TU32, nil)
	badReserved[6] = 1
	cases := []struct {
		name string
		body []byte
		code string
	}{
		{"truncated-header", frameMagic[:], "truncated-header"},
		{"bad-magic", []byte("PBSG\x01\x00\x00\x00"), "bad-magic"},
		{"bad-version", badVersion, "bad-version"},
		{"bad-elem-type", badType, "bad-elem-type"},
		{"bad-reserved", badReserved, "bad-reserved"},
		// 5 bytes of u64 payload: not a multiple of the 8-byte element.
		{"width-mismatch", frame(element.TU64, []byte{1, 2, 3, 4, 5}), "width-mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSort(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e.Code != tc.code {
				t.Fatalf("error code %q, want %q (error: %s)", e.Code, tc.code, e.Error)
			}
		})
	}
}

// TestGatewayStatsAndMetrics checks the aggregated observability
// surface: /stats keys every element type, and a gateway /metrics
// scrape stays valid Prometheus exposition — per-elem series, but only
// ONE HELP/TYPE header block per metric name.
func TestGatewayStatsAndMetrics(t *testing.T) {
	_, ts := newTestGateway(t)
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, 42)
	if resp := postSort(t, ts.URL, frame(element.TU64, payload)); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed sort status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Elems map[string]json.RawMessage `json:"elems"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, et := range element.Types() {
		if _, ok := st.Elems[et.String()]; !ok {
			t.Fatalf("/stats missing element section %q: %v", et.String(), st.Elems)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	if want := `parbitonic_serve_requests_total{elem="u64",outcome="ok"} 1`; !strings.Contains(string(text), want) {
		t.Fatalf("/metrics missing %q", want)
	}
	typeLines := 0
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "# TYPE parbitonic_serve_requests_total ") {
			typeLines++
		}
	}
	if typeLines != 1 {
		t.Fatalf("parbitonic_serve_requests_total has %d TYPE headers, want exactly 1", typeLines)
	}

	// Idle element servers list their requests as [], not null, so the
	// sortz JSON reads the same whether or not a type saw traffic.
	zresp, err := http.Get(ts.URL + "/debug/sortz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer zresp.Body.Close()
	var z struct {
		Elems []map[string]json.RawMessage `json:"elems"`
	}
	if err := json.NewDecoder(zresp.Body).Decode(&z); err != nil {
		t.Fatal(err)
	}
	for _, e := range z.Elems {
		for _, k := range []string{"recent", "slowest"} {
			if v := string(e[k]); v == "" || v == "null" {
				t.Errorf("sortz %s %s = %q, want a list", e["elem"], k, v)
			}
		}
	}
}

// TestStatsCountsVerifyFailures: /stats carries the same request
// counters as /metrics, so a request that fails result verification
// shows up under "verify-failure" there too.
func TestStatsCountsVerifyFailures(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Kind: fault.Corrupt, Proc: 1, Round: 0})
	g, err := NewGateway(Config{
		Engine: parbitonic.Config{
			Processors:  4,
			Backend:     parbitonic.Native,
			Verify:      true,
			WrapCharger: inj.Wrap,
		},
		MaxDelay:       time.Millisecond,
		Retries:        -1,
		DisableBreaker: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewGatewayHandler(g, nil))
	defer func() { ts.Close(); g.Close() }()

	keys := make([]uint32, 512)
	for i := range keys {
		keys[i] = uint32(len(keys) - i)
	}
	if resp := postSort(t, ts.URL, u32Frame(keys)); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 for a corrupted run", resp.StatusCode)
	}
	if !inj.Fired() {
		t.Fatal("injector did not fire")
	}
	m := g.U32().Metrics()
	if got := m.RequestCount("verify-failure"); got != 1 {
		t.Fatalf("verify-failure count = %v, want 1", got)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Elems map[string]struct {
			Requests map[string]float64 `json:"requests"`
		} `json:"elems"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	got := st.Elems["u32"].Requests
	for outcome, want := range requestCounts(m) {
		if v, ok := got[outcome]; !ok || v != want {
			t.Errorf("/stats requests[%q] = %v (present %v), want %v", outcome, v, ok, want)
		}
	}
}
