// Package envelope is the HTTP edge shared by the platform's two JSON
// surfaces, the v1 API (internal/serve) and the fabric protocol
// (internal/fabric).  A Surface holds one error table (sentinel → wire
// code → status) and supplies everything both sides of a surface need:
// the JSON writer, the error envelope {"error","code"}, the bounded body
// decoder, and the client call that reverses the table so callers branch
// with errors.Is instead of string-matching bodies.
package envelope

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// MaxBody caps every request body a surface decodes.
const MaxBody = 16 << 20

// maxResponse caps the response bodies a client reads.
const maxResponse = 64 << 20

// Code is one row of a surface's error table.
type Code struct {
	// Name is the wire code, a stable API string.
	Name   string
	Status int
	// Err is the sentinel the row stands for; a client rebuilds it from
	// Name.
	Err error
	// Also lists further errors that answer with this row.  A client
	// still rebuilds Err for them.
	Also []error
}

// Internal answers every error no row matches.  It has no sentinel, so a
// client sees a plain error carrying the message.
var Internal = Code{Name: "internal", Status: http.StatusInternalServerError}

// Surface is the edge policy of one HTTP/JSON API.
type Surface struct {
	// Name prefixes the errors a client builds ("serve", "fabric").
	Name string
	// Codes is the error table.  The first row whose Err or Also matches
	// under errors.Is wins; no match is Internal.
	Codes []Code
	// Strict rejects request bodies that carry unknown fields.
	Strict bool
}

// Error is the wire envelope of every non-2xx answer.
type Error struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// For returns the table row err answers with.
func (s *Surface) For(err error) Code {
	for _, c := range s.Codes {
		if errors.Is(err, c.Err) {
			return c
		}
		for _, also := range c.Also {
			if errors.Is(err, also) {
				return c
			}
		}
	}
	return Internal
}

// sentinel returns the error a wire code stands for, or nil.
func (s *Surface) sentinel(code string) error {
	for _, c := range s.Codes {
		if c.Name == code {
			return c.Err
		}
	}
	return nil
}

// WriteJSON answers with status and v encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers err with its row's status and the envelope.  A 429
// carries a Retry-After hint.
func (s *Surface) WriteError(w http.ResponseWriter, err error) {
	c := s.For(err)
	if c.Status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, c.Status, Error{Error: err.Error(), Code: c.Name})
}

var errTooLarge = fmt.Errorf("request body exceeds the %d MiB limit", MaxBody>>20)

// Decode reads r's body and decodes its first JSON value into v.  A body
// over MaxBody is refused whole with an error naming the limit; an empty
// (or all-whitespace) body is io.EOF, so a caller can treat it as the
// zero request.
func (s *Surface) Decode(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBody))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return errTooLarge
	}
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if s.Strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(v)
}

// Call is one client request against a surface.
type Call struct {
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP   *http.Client
	Method string
	URL    string
	// APIKey, when set, travels as Authorization: Bearer.
	APIKey string
	// In is the JSON request body; nil sends none.
	In any
	// Out receives a 2xx body: nil discards it, a *[]byte takes it
	// verbatim, anything else is JSON-decoded into.
	Out any
}

// Do runs one call.  A non-2xx answer becomes the row's sentinel wrapped
// around the server's message; an answer without a parsable envelope (a
// proxy error page) becomes a plain error carrying the status.
func (s *Surface) Do(ctx context.Context, c Call) error {
	var body io.Reader
	if c.In != nil {
		blob, err := json.Marshal(c.In)
		if err != nil {
			return fmt.Errorf("%s: encode request: %w", s.Name, err)
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, c.Method, c.URL, body)
	if err != nil {
		return fmt.Errorf("%s: %w", s.Name, err)
	}
	if c.In != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.APIKey)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s: %w", s.Name, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse+1))
	if err != nil {
		return fmt.Errorf("%s: read response: %w", s.Name, err)
	}
	if len(blob) > maxResponse {
		return fmt.Errorf("%s: response body exceeds the %d MiB limit", s.Name, maxResponse>>20)
	}
	if resp.StatusCode/100 != 2 {
		return s.decodeError(resp.StatusCode, blob)
	}
	switch out := c.Out.(type) {
	case nil:
	case *[]byte:
		*out = blob
	default:
		if err := json.Unmarshal(blob, out); err != nil {
			return fmt.Errorf("%s: bad response body: %w", s.Name, err)
		}
	}
	return nil
}

func (s *Surface) decodeError(status int, blob []byte) error {
	var e Error
	if json.Unmarshal(blob, &e) == nil && e.Code != "" {
		if sentinel := s.sentinel(e.Code); sentinel != nil {
			return fmt.Errorf("%w: %s", sentinel, e.Error)
		}
		return fmt.Errorf("%s: %s (%s)", s.Name, e.Error, e.Code)
	}
	return fmt.Errorf("%s: http %d: %s", s.Name, status, bytes.TrimSpace(blob))
}
