package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dcatch/internal/obs"
)

// Client is the thin HTTP client for a dcatch-serve instance; the dcatch
// CLI's -submit mode is built on it.
type Client struct {
	// Base is the service URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

// NewClient returns a client for the service at base.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// StatusError is a non-2xx API response.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Message)
}

// IsBusy reports whether err is the service's 429 backpressure response;
// callers should retry after a delay.
func IsBusy(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusTooManyRequests
}

// decodeStatus parses a JobStatus response, converting error envelopes.
func decodeStatus(resp *http.Response) (*JobStatus, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("serve: reading response: %w", err)
	}
	if resp.StatusCode >= 300 {
		var eb errorBody
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			return nil, &StatusError{Code: resp.StatusCode, Message: eb.Error}
		}
		return nil, &StatusError{Code: resp.StatusCode, Message: string(body)}
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("serve: bad status body: %w", err)
	}
	return &st, nil
}

// SubmitSubject submits a subject job.
func (c *Client) SubmitSubject(req SubjectRequest) (*JobStatus, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, fmt.Errorf("serve: submit: %w", err)
	}
	return decodeStatus(resp)
}

// SubmitTrace submits an uploaded-trace job; r streams the binary trace.
func (c *Client) SubmitTrace(r io.Reader, opt JobOptions) (*JobStatus, error) {
	q := url.Values{}
	if opt.Parallelism != 0 {
		q.Set("parallel", strconv.Itoa(opt.Parallelism))
	}
	if opt.Reach != "" {
		q.Set("reach", opt.Reach)
	}
	if opt.MemBudget != 0 {
		q.Set("mem_budget", strconv.FormatInt(opt.MemBudget, 10))
	}
	if opt.ChunkSize != 0 {
		q.Set("chunk_size", strconv.Itoa(opt.ChunkSize))
	}
	if opt.MaxGroup != 0 {
		q.Set("max_group", strconv.Itoa(opt.MaxGroup))
	}
	u := c.Base + "/v1/jobs"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := c.httpClient().Post(u, "application/octet-stream", r)
	if err != nil {
		return nil, fmt.Errorf("serve: submit trace: %w", err)
	}
	return decodeStatus(resp)
}

// Status fetches one job's status.
func (c *Client) Status(id string) (*JobStatus, error) {
	resp, err := c.httpClient().Get(c.Base + "/v1/jobs/" + id)
	if err != nil {
		return nil, fmt.Errorf("serve: status: %w", err)
	}
	return decodeStatus(resp)
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	const poll = 50 * time.Millisecond
	for {
		st, err := c.Status(id)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Report fetches a finished job's report bytes.
func (c *Client) Report(id string) ([]byte, error) {
	resp, err := c.httpClient().Get(c.Base + "/v1/jobs/" + id + "/report")
	if err != nil {
		return nil, fmt.Errorf("serve: report: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve: reading report: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			return nil, &StatusError{Code: resp.StatusCode, Message: eb.Error}
		}
		return nil, &StatusError{Code: resp.StatusCode, Message: string(body)}
	}
	return body, nil
}

// JobMetrics fetches one job's telemetry snapshot.
func (c *Client) JobMetrics(id string) (*JobMetrics, error) {
	resp, err := c.httpClient().Get(c.Base + "/v1/jobs/" + id + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("serve: job metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("serve: reading job metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			return nil, &StatusError{Code: resp.StatusCode, Message: eb.Error}
		}
		return nil, &StatusError{Code: resp.StatusCode, Message: string(body)}
	}
	var jm JobMetrics
	if err := json.Unmarshal(body, &jm); err != nil {
		return nil, fmt.Errorf("serve: bad job metrics body: %w", err)
	}
	return &jm, nil
}

// StreamEvents consumes one job's NDJSON event stream, calling fn per
// event. It returns nil when the stream ends (the job went terminal), fn's
// error if fn fails, or the transport error. ctx cancellation aborts the
// stream.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(obs.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("serve: events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var eb errorBody
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			return &StatusError{Code: resp.StatusCode, Message: eb.Error}
		}
		return &StatusError{Code: resp.StatusCode, Message: string(body)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("serve: bad event line %q: %w", line, err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("serve: events stream: %w", err)
	}
	return nil
}
