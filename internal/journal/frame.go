package journal

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// Frame layout. Every journal record is framed as
//
//	offset  size  field
//	0       4     payload length n, uint32 little-endian (1 ≤ n ≤ MaxRecordSize)
//	4       4     CRC32-C (Castagnoli) of the payload, uint32 little-endian
//	8       n     payload bytes
//
// frames are written back-to-back with no padding, so a segment is valid
// exactly when it is a concatenation of intact frames. The checksum is
// over the payload only; a corrupted length field either points past the
// end of the segment (classified as a torn tail) or lands the CRC check
// on the wrong bytes (classified by where the damage sits, see
// frameScanner.scan).

const (
	frameHeaderSize = 8

	// MaxRecordSize bounds a single record payload (64 MiB). A sale
	// record is about 8 bytes per model weight plus ~80 (153 B at d=9,
	// 804 B at d=90); the cap exists so a corrupted length field cannot
	// make the scanner allocate gigabytes.
	MaxRecordSize = 64 << 20
)

// castagnoli is the CRC32-C polynomial table. CRC32-C has hardware
// support on amd64/arm64, which keeps framing overhead out of the append
// hot path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the framed encoding of payload to dst and returns
// the extended slice.
//
//lint:allocok appends into the caller's reusable frame buffer, whose growth amortizes across batches
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// scanStatus classifies how a segment's byte stream ends.
type scanStatus int

const (
	// scanClean: the stream is exactly a concatenation of intact frames.
	scanClean scanStatus = iota
	// scanTorn: an intact prefix is followed by a partial or
	// checksum-failing final frame with nothing but that frame (or
	// zero-fill) after it — the signature of a write cut short by a
	// crash. Recovery truncates the tail and keeps the prefix.
	scanTorn
	// scanCorrupt: a bad frame is followed by more data, i.e. damage in
	// the middle of the stream. Truncating here would silently drop
	// records that were once durable, so recovery refuses.
	scanCorrupt
)

func (s scanStatus) String() string {
	switch s {
	case scanClean:
		return "clean"
	case scanTorn:
		return "torn"
	default:
		return "corrupt"
	}
}

// scanBufSize is the read buffer a frameScanner streams segments
// through. With it, the memory recovery needs is this buffer plus the
// largest record, whatever the segment size or the journal's length.
const scanBufSize = 64 << 10

// scanResult is what scanning one segment found.
type scanResult struct {
	size     int64 // bytes in the stream
	validLen int64 // length of the intact frame prefix
	frames   int   // intact frames in that prefix
	status   scanStatus
}

// frameScanner reads frames out of segment streams. One scanner serves
// every segment of a recovery, replay or verification pass: it reuses its
// read buffer, and its payload buffer grows only to the largest frame it
// has seen.
type frameScanner struct {
	r       *bufio.Reader
	payload []byte
}

func newFrameScanner() *frameScanner {
	return &frameScanner{r: bufio.NewReaderSize(nil, scanBufSize)}
}

// scan reads r to its end, invoking fn (when non-nil) with each intact
// frame's payload, and reports the valid prefix, the frame count, the
// stream's length and how it ends. The payload is valid only during the
// call to fn. A non-nil error from fn aborts the scan and is returned
// verbatim; a read error is returned too.
//
// Classification rules, in order, at the first non-intact frame:
//
//   - header or payload extends past the end of the stream → torn
//   - zero-length frame: a run of zero bytes to the end is a zero-filled
//     torn tail; anything else after it is corruption (a genuine empty
//     record is never written, and CRC32-C of the empty payload is 0, so
//     an all-zero header would otherwise decode as a valid record)
//   - length over MaxRecordSize with the stream holding that many bytes
//     after the header → corrupt
//   - checksum mismatch with nothing (or only zero-fill) after the frame
//     → torn; with real data after it → corrupt
//
// Every verdict other than clean reads the rest of the stream, which is
// how the stream's length and the zero-fill lookahead are known.
func (s *frameScanner) scan(r io.Reader, fn func(payload []byte) error) (scanResult, error) {
	s.r.Reset(r)
	var res scanResult
	var hdr [frameHeaderSize]byte
	// end finishes the scan at the first frame that is not intact, read
	// bytes into it: it reads the rest of the stream, and the stream is
	// torn when torn holds of the rest's length and zero-fill, else
	// corrupt.
	end := func(read int64, torn func(rest int64, zero bool) bool) (scanResult, error) {
		rest, zero, err := s.drain()
		res.size = res.validLen + read + rest
		res.status = scanCorrupt
		if torn(rest, zero) {
			res.status = scanTorn
		}
		return res, err
	}
	for {
		n, err := io.ReadFull(s.r, hdr[:])
		switch {
		case err == io.EOF:
			res.size = res.validLen
			return res, nil
		case err == io.ErrUnexpectedEOF:
			return end(int64(n), func(int64, bool) bool { return true })
		case err != nil:
			return res, err
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		switch {
		case plen == 0:
			return end(frameHeaderSize, func(_ int64, zero bool) bool { return want == 0 && zero })
		case plen > MaxRecordSize:
			return end(frameHeaderSize, func(rest int64, _ bool) bool { return rest < plen })
		}
		payload, err := s.readPayload(int(plen))
		if err != nil {
			return res, err
		}
		if int64(len(payload)) < plen {
			return end(frameHeaderSize+int64(len(payload)), func(int64, bool) bool { return true })
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return end(frameHeaderSize+plen, func(_ int64, zero bool) bool { return zero })
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return res, err
			}
		}
		res.frames++
		res.validLen += frameHeaderSize + plen
	}
}

// readPayload reads the next n bytes into the payload buffer. The buffer
// grows only as bytes arrive, so a corrupt length field in a short stream
// cannot make it allocate more than the stream holds. It returns fewer
// than n bytes, and no error, when the stream ends first.
func (s *frameScanner) readPayload(n int) ([]byte, error) {
	p := s.payload[:0]
	var err error
	for len(p) < n && err == nil {
		chunk := min(n-len(p), scanBufSize)
		p = slices.Grow(p, chunk)
		var k int
		k, err = io.ReadFull(s.r, p[len(p):len(p)+chunk])
		p = p[:len(p)+k]
	}
	s.payload = p
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	return p, err
}

// drain consumes the rest of the stream, returning its length and whether
// every byte of it is zero.
func (s *frameScanner) drain() (n int64, zero bool, err error) {
	zero = true
	for {
		b, err := s.r.Peek(scanBufSize)
		n += int64(len(b))
		zero = zero && allZero(b)
		//lint:ignore no-dropped-error discarding bytes Peek just returned cannot fail
		s.r.Discard(len(b))
		if err == io.EOF {
			return n, zero, nil
		}
		if err != nil {
			return n, zero, err
		}
	}
}

// scanFile scans the first limit bytes of the segment at path through
// fsys.
func (s *frameScanner) scanFile(fsys FS, path string, limit int64, fn func(payload []byte) error) (scanResult, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return scanResult{}, err
	}
	res, err := s.scan(io.LimitReader(f, limit), fn)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// allZero reports whether every byte of b is zero (a zero-filled tail, as
// left behind by a crash that extended the file before the data pages
// reached disk).
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
