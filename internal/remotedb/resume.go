package remotedb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Mid-stream failure recovery (wire v2): when a connection dies after frame N
// of a stream, the tuples already delivered are gone from the server's point
// of view — re-issuing the statement replays the whole result, and a naive
// client either drops the partial prefix (lost work) or concatenates two
// overlapping prefixes (duplicates). A resume token makes the re-issue safe:
//
//   - the server attaches a token to the header frame of every *resumable*
//     stream (a serial single-table PlanStream, engine_stream.go, whose
//     emission order is a deterministic function of an append-only snapshot);
//   - the token pins the statement (hash), the scanned table, the table's
//     version (bumped by every mutation: replacement, append, crash
//     recovery), and the snapshot length;
//   - a client that lost the connection after delivering K tuples re-issues
//     the statement with the token and Skip=K; the server opens the same
//     plan, checks that it bound exactly the pinned snapshot, drops the first
//     K tuples the plan emits, and the concatenation of the two deliveries
//     is byte-identical to an uninterrupted run (resume_test.go proves this
//     by property test and fuzzes it);
//   - when the pinned snapshot is gone (any mutation of the table since:
//     version mismatch), the server serves a fresh stream instead and says
//     so (header Resumed=false), leaving the client to skip
//     already-delivered tuples itself — full restart + client-side skip.
//     Appends leave the delivered prefix byte-identical, so that skip is
//     exact.
//
// The token is opaque to the client: it round-trips the header's string
// verbatim. The codec below therefore defends the *server* against tokens
// that were truncated, corrupted, or forged in transit: a version tag, a
// field checksum, and strict field validation make ParseResumeToken reject
// malformed input with a typed error instead of resuming the wrong scan
// (fuzzed in resume_test.go). Encode appends the fields with strconv, not
// fmt, and takes the checksum over the bytes it appended: a header's token
// costs the one string it is rendered into.

// ResumeToken identifies the snapshot one resumable stream reads. The zero
// token (empty Table) stands for "not resumable"; the codec rejects it.
type ResumeToken struct {
	// StmtHash is the FNV-1a hash of the statement text; a resume request
	// whose SQL does not hash to it is rejected (the token belongs to a
	// different statement).
	StmtHash uint64
	// Table is the scanned base table.
	Table string
	// Version is the table's extension version at snapshot time. Every
	// mutation bumps it — an append as much as a wholesale replacement or a
	// crash recovery — so a token never outlives the state it was minted on.
	Version uint64
	// SnapLen is the snapshot length in base tuples. Under one version it is
	// fixed; a token whose length differs from the bound snapshot's is forged
	// or corrupt and is refused.
	SnapLen int64
}

// resumeTokenPrefix tags the codec version; unknown tags are rejected.
const resumeTokenPrefix = "brt1"

// ErrResumeToken is the sentinel for malformed or mismatched resume tokens.
// Match with errors.Is. A bad token is NOT a request failure: the server
// falls back to a fresh stream, exactly as if no token had been sent.
var ErrResumeToken = errors.New("remotedb: bad resume token")

// StatementHash hashes a statement's text (FNV-1a) for resume-token identity.
func StatementHash(sql string) uint64 { return fnv1a(sql) }

// fnv1a is the FNV-1a hash of b's bytes.
func fnv1a[B string | []byte](b B) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

// checksum guards the encoded fields against corruption in transit. It is an
// integrity check, not authentication: FNV-1a over the payload, the four
// fields in hex separated by '|'.
func (t ResumeToken) checksum() uint64 {
	var buf [80]byte
	_, sum := t.appendFields(buf[:0])
	return sum
}

// appendFields appends the token's fields to dst in hex (the table as it
// is), separated by ':', and returns dst with the checksum, taken over the
// same bytes with '|' for each separator.
func (t ResumeToken) appendFields(dst []byte) ([]byte, uint64) {
	start := len(dst)
	dst = strconv.AppendUint(dst, t.StmtHash, 16)
	seps := [3]int{len(dst)}
	dst = append(append(dst, ':'), t.Table...)
	seps[1] = len(dst)
	dst = strconv.AppendUint(append(dst, ':'), t.Version, 16)
	seps[2] = len(dst)
	dst = strconv.AppendInt(append(dst, ':'), t.SnapLen, 16)
	for _, i := range seps {
		dst[i] = '|'
	}
	sum := fnv1a(dst[start:])
	for _, i := range seps {
		dst[i] = ':'
	}
	return dst, sum
}

// appendEncode appends Encode's text to dst.
func (t ResumeToken) appendEncode(dst []byte) []byte {
	dst = append(dst, resumeTokenPrefix+":"...)
	dst, sum := t.appendFields(dst)
	return strconv.AppendUint(append(dst, ':'), sum, 16)
}

// Encode renders the token as the opaque string carried on header frames.
// Table names are SQL identifiers (no separator characters), but the codec
// does not rely on that: Parse splits from the fixed-position ends so a
// hostile table name cannot shift fields.
func (t ResumeToken) Encode() string {
	var buf [96]byte
	return string(t.appendEncode(buf[:0]))
}

// ParseResumeToken decodes and validates an encoded token. Every failure is a
// typed error matching ErrResumeToken; the function never panics on arbitrary
// input (fuzzed).
func ParseResumeToken(s string) (ResumeToken, error) {
	var t ResumeToken
	if len(s) > 4096 {
		return t, fmt.Errorf("%w: oversized (%d bytes)", ErrResumeToken, len(s))
	}
	parts := strings.Split(s, ":")
	if len(parts) < 6 {
		return t, fmt.Errorf("%w: %d fields, want 6", ErrResumeToken, len(parts))
	}
	if parts[0] != resumeTokenPrefix {
		return t, fmt.Errorf("%w: unknown version tag %q", ErrResumeToken, parts[0])
	}
	// The table name is the only free-form field; rejoin any interior colons
	// so the numeric fields always parse from the fixed positions.
	n := len(parts)
	table := strings.Join(parts[2:n-3], ":")
	stmtHash, err := strconv.ParseUint(parts[1], 16, 64)
	if err != nil {
		return t, fmt.Errorf("%w: statement hash: %v", ErrResumeToken, err)
	}
	version, err := strconv.ParseUint(parts[n-3], 16, 64)
	if err != nil {
		return t, fmt.Errorf("%w: version: %v", ErrResumeToken, err)
	}
	snapLen, err := strconv.ParseUint(parts[n-2], 16, 63)
	if err != nil {
		return t, fmt.Errorf("%w: snapshot length: %v", ErrResumeToken, err)
	}
	sum, err := strconv.ParseUint(parts[n-1], 16, 64)
	if err != nil {
		return t, fmt.Errorf("%w: checksum: %v", ErrResumeToken, err)
	}
	t = ResumeToken{StmtHash: stmtHash, Table: table, Version: version, SnapLen: int64(snapLen)}
	if t.checksum() != sum {
		return ResumeToken{}, fmt.Errorf("%w: checksum mismatch", ErrResumeToken)
	}
	if t.Table == "" {
		return ResumeToken{}, fmt.Errorf("%w: empty table", ErrResumeToken)
	}
	return t, nil
}
