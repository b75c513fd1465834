// Package shard distributes a scenario sweep across worker processes: a
// Coordinator deterministically partitions the sweep's canonical point
// order into N shards (scenario.ShardPoints), farms each shard to a
// worker — the same binary re-exec'd in -worker mode speaking
// length-prefixed JSON over stdio, or a remote worker over HTTP — and
// merges the rows back into canonical order (scenario.MergeShards).
//
// The determinism contract does the heavy lifting: every point is a pure
// function of (config, seed, CodeVersion), so a merged sharded run must
// be byte-identical to a single-process run, and the Merkle run ledger
// (scenario.MerkleRoot) verifies exactly that — each worker returns the
// sub-root of its rows (transport integrity), and the golden tests
// compare the merged root against the single-process root end to end.
//
// Failure handling follows the same contract: a worker that dies
// mid-shard (crash, pipe break, protocol desync) is replaced and its
// shard retried on a fresh worker — the rerun provably computes the same
// rows. An application error, by contrast, is fatal immediately: the
// simulator is deterministic, so retrying an invalid scenario would fail
// identically.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// ProtocolVersion gates the worker protocol; a version-mismatched worker
// rejects the request rather than returning silently different bytes.
const ProtocolVersion = 1

// MaxFrame bounds one protocol frame (64 MiB). The largest realistic
// frame — every row of a Full-fidelity sweep in one response — is well
// under 1 MiB; the bound exists so a desynchronized or hostile stream
// cannot make a reader allocate an absurd buffer.
const MaxFrame = 64 << 20

// Request asks a worker to execute one shard of a sweep.
type Request struct {
	Version int `json:"version"`
	// ID matches responses to requests on a stream.
	ID int64 `json:"id"`
	// Scenario is the validated scenario, re-marshaled by the coordinator
	// (a validated scenario round-trips through JSON unchanged; the Cache
	// field is runtime state and never serializes).
	Scenario json.RawMessage `json:"scenario"`
	// Shard and Shards select the partition: the worker runs the
	// canonical-order points with index % Shards == Shard.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Parallelism, when > 0, overrides the scenario's in-process sweep
	// concurrency inside the worker (shards x parallelism simulations run
	// at once across the fleet).
	Parallelism int `json:"parallelism,omitempty"`
	// CodeVersion pins simulation semantics: a worker running different
	// code must refuse rather than contribute rows from another universe.
	CodeVersion string `json:"code_version"`
}

// Response frame types.
const (
	// TypeProgress streams shard progress; zero or more per request.
	TypeProgress = "progress"
	// TypeResult is the terminal success frame carrying the shard's rows.
	TypeResult = "result"
	// TypeError is the terminal failure frame: the request failed in
	// application code (the worker process itself is still healthy).
	TypeError = "error"
)

// Response is one frame of a worker's reply stream: zero or more progress
// frames, then exactly one result or error frame.
type Response struct {
	ID   int64  `json:"id"`
	Type string `json:"type"`
	// Done/Total report shard progress (progress frames).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Rows are the shard's results in shard-local order (result frames).
	Rows []scenario.Row `json:"rows,omitempty"`
	// Cache reports the worker's result-cache counters for this shard, so
	// the coordinator can bubble them into its own Scope() counters.
	Cache *resultcache.Stats `json:"cache,omitempty"`
	// Root is the Merkle sub-root over Rows in slice order; the
	// coordinator recomputes it on receipt to verify transport integrity.
	Root string `json:"root,omitempty"`
	// Error describes the failure (error frames).
	Error string `json:"error,omitempty"`
}

// WriteFrame marshals v and writes it as one length-prefixed frame: a
// 4-byte big-endian byte count, then the JSON.
func WriteFrame(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("shard: marshaling frame: %w", err)
	}
	if len(data) > MaxFrame {
		return fmt.Errorf("shard: frame of %d bytes exceeds the %d-byte bound", len(data), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadFrame reads one length-prefixed frame into v. A clean EOF between
// frames returns io.EOF verbatim (the stream ended); EOF inside a frame
// is an ErrUnexpectedEOF-wrapped error. The body buffer grows with the
// bytes that actually arrive, so a header claiming a large frame costs
// memory only once its body does.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("shard: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("shard: frame of %d bytes exceeds the %d-byte bound (stream desynchronized?)", n, MaxFrame)
	}
	data, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(data) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("shard: reading %d-byte frame body: %w", n, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("shard: decoding frame: %w", err)
	}
	return nil
}

// RowsRoot computes the Merkle sub-root over a shard's rows in slice
// order: the run-ledger leaf codec applied to each row's Result, so a
// shard's sub-root is built from the exact leaves the merged ledger root
// is.
func RowsRoot(rows []scenario.Row) string {
	results := make([]scenario.Result, len(rows))
	for i, r := range rows {
		results[i] = r.Result
	}
	return scenario.MerkleRoot(results)
}
