package tracebin

// Window tests: traces several times the reader's 64 KiB window, decoded
// through readers that split the input at arbitrary places, so every
// refill, slide and record straddling a refill is exercised.

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"ldcflood/internal/sim"
	"ldcflood/internal/tracelog"
)

// trafficEvents builds a flood-like event stream: slot times that only
// move forward in small steps, node ids below 1000 and a handful of
// packets, so records are as short as in real traces (about 7 bytes).
func trafficEvents(rng *rand.Rand, n int) []tracelog.Event {
	events := make([]tracelog.Event, n)
	var t int64
	for i := range events {
		t += int64(rng.Intn(3))
		ev := tracelog.Event{T: t, Packet: rng.Intn(100)}
		switch k := rng.Intn(10); {
		case k == 0:
			ev.Kind = tracelog.KindInject
		case k == 1:
			ev.Kind = tracelog.KindCovered
		case k < 6:
			ev.Kind = tracelog.KindTransmit
			ev.From, ev.To = rng.Intn(1000), rng.Intn(1000)
			ev.Outcome = sim.TxOutcome(rng.Intn(4))
		default:
			ev.Kind = tracelog.KindOverhear
			ev.From, ev.To = rng.Intn(1000), rng.Intn(1000)
		}
		events[i] = ev
	}
	return events
}

// largeTrace returns a trace of more than 256 KiB and the byte offset at
// which each record ends (ends[i] is the end of record i).
func largeTrace(t testing.TB) (events []tracelog.Event, bin []byte, ends []int) {
	t.Helper()
	events = trafficEvents(rand.New(rand.NewSource(11)), 50_000)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ends = make([]int, len(events))
	for i, ev := range events {
		if err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ends[i] = buf.Len()
	}
	bin = buf.Bytes()
	if len(bin) <= 256*1024 {
		t.Fatalf("trace is %d bytes, want more than 256 KiB", len(bin))
	}
	return events, bin, ends
}

// chunkReader returns at most n bytes per Read call.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	m := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[m:]
	return m, nil
}

// splitReaders returns the inputs every window test decodes through:
// whole-buffer reads, one byte per read and 4093-byte (prime) reads.
func splitReaders(data []byte) map[string]io.Reader {
	return map[string]io.Reader{
		"bytes":   bytes.NewReader(data),
		"onebyte": &oneByteReader{data: data},
		"chunk":   &chunkReader{data: data, n: 4093},
	}
}

func TestReaderLargeTrace(t *testing.T) {
	events, bin, _ := largeTrace(t)
	for name, rd := range splitReaders(bin) {
		got, torn, err := ReadAll(rd)
		if err != nil || torn {
			t.Fatalf("%s: torn=%v err=%v", name, torn, err)
		}
		if !reflect.DeepEqual(got, events) {
			t.Fatalf("%s: decoded events differ from the encoded ones", name)
		}
	}
}

// TestReaderTornAtWindowBoundaries cuts the trace within three bytes of
// every 64 KiB boundary: the cut must report exactly the records that end
// at or before it, and torn unless it falls on a record boundary.
func TestReaderTornAtWindowBoundaries(t *testing.T) {
	events, bin, ends := largeTrace(t)
	for b := windowSize; b < len(bin); b += windowSize {
		for cut := b - 3; cut <= b+3; cut++ {
			whole := 0
			for whole < len(ends) && ends[whole] <= cut {
				whole++
			}
			clean := whole > 0 && ends[whole-1] == cut
			for name, rd := range splitReaders(bin[:cut]) {
				got, torn, err := ReadAll(rd)
				if err != nil {
					t.Fatalf("cut %d %s: %v", cut, name, err)
				}
				if torn == clean {
					t.Fatalf("cut %d %s: torn = %v, want %v", cut, name, torn, !clean)
				}
				if len(got) != whole || !reflect.DeepEqual(got, events[:whole]) {
					t.Fatalf("cut %d %s: decoded %d events, want the first %d", cut, name, len(got), whole)
				}
			}
		}
	}
}

// TestReaderCorruptOffsetPastWindow overwrites the kind byte of records
// beyond the first window with an unknown kind: the error must name that
// byte's absolute offset, after every record before it.
func TestReaderCorruptOffsetPastWindow(t *testing.T) {
	_, bin, ends := largeTrace(t)
	for _, target := range []int{windowSize, 2*windowSize + 1, 3*windowSize - 2} {
		i := 0
		for ends[i] < target {
			i++
		}
		off := ends[i] // the kind byte of record i+1
		doc := append([]byte(nil), bin...)
		doc[off] = 0x7f
		for name, rd := range splitReaders(doc) {
			got, _, err := ReadAll(rd)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("offset %d %s: want CorruptError, got %v", off, name, err)
			}
			if ce.Offset != int64(off) {
				t.Fatalf("%s: CorruptError.Offset = %d, want %d", name, ce.Offset, off)
			}
			if len(got) != i+1 {
				t.Fatalf("offset %d %s: decoded %d events before the corruption, want %d", off, name, len(got), i+1)
			}
		}
	}
}

// TestReaderNextAllocs pins decoding as allocation-free per record.
func TestReaderNextAllocs(t *testing.T) {
	_, bin, _ := largeTrace(t)
	r := NewReader(bytes.NewReader(bin))
	allocs := testing.AllocsPerRun(20_000, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %v times per record, want 0", allocs)
	}
}

// BenchmarkReaderNext decodes a 256 KiB+ trace record by record; one
// operation is the whole trace.
func BenchmarkReaderNext(b *testing.B) {
	_, bin, _ := largeTrace(b)
	b.SetBytes(int64(len(bin)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(bin))
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
