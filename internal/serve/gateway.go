package serve

import (
	"context"
	"fmt"

	"parbitonic/element"
)

// Binary frame, v1. Every binary body is a frame: an 8-byte header
// naming the element type, then the elements.
//
//	[0:4]  magic "PBSF"
//	[4]    version (currently 1)
//	[5]    element type byte (element.Type values: 0=u32, 1=u64,
//	       2=f32, 3=f64, 4=kv64)
//	[6:8]  reserved, must be zero
//	[8:]   payload: little-endian elements (kv64: key word then
//	       payload word)
//
// Responses carry the request's header.
const (
	frameVersion   = 1
	frameHeaderLen = 8
)

var frameMagic = [4]byte{'P', 'B', 'S', 'F'}

// FrameError describes a malformed binary frame. The HTTP layer maps
// it to status 400 with the machine-readable Code in the JSON error
// body, so clients can distinguish (say) an element-width mismatch
// from a bad version without parsing prose.
type FrameError struct {
	// Code is one of "truncated-header", "bad-magic", "bad-version",
	// "bad-elem-type", "bad-reserved", "width-mismatch".
	Code string
	// Detail is the human-readable explanation.
	Detail string
}

// Error formats the failure with its code.
func (e *FrameError) Error() string {
	return fmt.Sprintf("serve: bad frame (%s): %s", e.Code, e.Detail)
}

// decodeFrame parses a binary body's header, returning the element
// type and the payload after the header. Payload width is validated
// later by the typed server, which knows its element width.
func decodeFrame(raw []byte) (t element.Type, payload []byte, err error) {
	if len(raw) < frameHeaderLen {
		return 0, nil, &FrameError{Code: "truncated-header", Detail: fmt.Sprintf("frame header is %d bytes, need %d", len(raw), frameHeaderLen)}
	}
	if [4]byte(raw[:4]) != frameMagic {
		return 0, nil, &FrameError{Code: "bad-magic", Detail: fmt.Sprintf("body starts with %q, not the frame magic %q", raw[:4], frameMagic[:])}
	}
	if raw[4] != frameVersion {
		return 0, nil, &FrameError{Code: "bad-version", Detail: fmt.Sprintf("frame version %d, this server speaks %d", raw[4], frameVersion)}
	}
	t = element.Type(raw[5])
	if t.Width() == 0 {
		return 0, nil, &FrameError{Code: "bad-elem-type", Detail: fmt.Sprintf("unknown element type byte %d", raw[5])}
	}
	if raw[6] != 0 || raw[7] != 0 {
		return 0, nil, &FrameError{Code: "bad-reserved", Detail: "reserved header bytes must be zero"}
	}
	return t, raw[frameHeaderLen:], nil
}

// FrameHeader renders the 8-byte v1 frame header for element type t,
// the prefix of every binary request and response body.
func FrameHeader(t element.Type) []byte {
	h := make([]byte, frameHeaderLen)
	copy(h, frameMagic[:])
	h[4] = frameVersion
	h[5] = byte(t)
	return h
}

// elemServer is the type-erased face of a ServerOf: the Gateway routes
// each frame to the server of its element type through it.
type elemServer interface {
	sortPayload(ctx context.Context, payload []byte) (out []byte, degraded bool, err error)
	retryAfterSeconds(err error) int
	Metrics() *Metrics
	Close() error
}

// sortPayload decodes a frame payload into elements, sorts them
// through the service, and re-encodes, reporting whether the
// degraded-mode fallback served the request. A payload whose length is
// not a multiple of the element width is rejected with a
// width-mismatch FrameError before touching the queue.
func (s *ServerOf[E]) sortPayload(ctx context.Context, payload []byte) ([]byte, bool, error) {
	w := element.Width[E]()
	if len(payload)%w != 0 {
		return nil, false, &FrameError{
			Code:   "width-mismatch",
			Detail: fmt.Sprintf("payload length %d is not a multiple of the %d-byte %s element", len(payload), w, element.TypeOf[E]()),
		}
	}
	keys := make([]E, len(payload)/w)
	for i := range keys {
		keys[i] = element.Get[E](payload[i*w:])
	}
	sorted, degraded, err := s.SortDegradable(ctx, keys)
	if err != nil {
		return nil, false, err
	}
	out := make([]byte, len(sorted)*w)
	for i, e := range sorted {
		element.Put(out[i*w:], e)
	}
	return out, degraded, nil
}

// Gateway fronts one typed server per element type behind a single
// HTTP handler (NewGatewayHandler): binary frames route to the server
// of their element type; JSON requests go to the u32 server. All
// servers share one Config (and therefore one engine shape), but each
// has its own pool, queue and batcher — batches never mix element
// types.
type Gateway struct {
	u32     *Server
	servers map[element.Type]elemServer
	order   []element.Type // scrape/stats order, deterministic
}

// NewGateway starts one server per element type from the shared cfg.
// On any constructor error the already-started servers are closed.
func NewGateway(cfg Config) (*Gateway, error) {
	g := &Gateway{servers: make(map[element.Type]elemServer)}
	add := func(t element.Type, s elemServer, err error) error {
		if err != nil {
			g.Close()
			return fmt.Errorf("serve: gateway %s server: %w", t, err)
		}
		g.servers[t] = s
		g.order = append(g.order, t)
		return nil
	}
	u32, err := NewOf[uint32](cfg)
	if err := add(element.TU32, u32, err); err != nil {
		return nil, err
	}
	g.u32 = u32
	u64s, err := NewOf[uint64](cfg)
	if err := add(element.TU64, u64s, err); err != nil {
		return nil, err
	}
	f32s, err := NewOf[float32](cfg)
	if err := add(element.TF32, f32s, err); err != nil {
		return nil, err
	}
	f64s, err := NewOf[float64](cfg)
	if err := add(element.TF64, f64s, err); err != nil {
		return nil, err
	}
	kvs, err := NewOf[element.KV64](cfg)
	if err := add(element.TKV64, kvs, err); err != nil {
		return nil, err
	}
	return g, nil
}

// U32 returns the gateway's uint32 server — the one JSON requests are
// served by.
func (g *Gateway) U32() *Server { return g.u32 }

// Close shuts every typed server down (graceful drain each).
func (g *Gateway) Close() error {
	for _, s := range g.servers {
		if s != nil {
			s.Close()
		}
	}
	return nil
}
