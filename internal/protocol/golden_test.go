package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"matrix/internal/geom"
)

// goldenPath holds the wire golden: one "label hex" line per frame of
// goldenFrames. A deliberate wire change deletes the file and runs
// TestGoldenFrames once, which writes it anew and fails; review the diff and
// commit it.
var goldenPath = filepath.Join("testdata", "frames.golden")

// goldenFrame is one pinned message. short, when set, is the same message
// without its optional trailing field: its frame is a strict prefix of this
// one's, and the only prefix that decodes.
type goldenFrame struct {
	label    string
	m, short Message
}

// goldenFrames is every frame the wire golden pins: each sample message,
// each correlation-capable message stamped, a hello with a token and a batch
// of mixed messages.
func goldenFrames() []goldenFrame {
	var out []goldenFrame
	for _, m := range sampleMessages() {
		out = append(out, goldenFrame{label: m.MsgType().String(), m: m})
	}
	plain := corrMessages(0)
	for i, m := range corrMessages(0xDEADBEEF12345) {
		out = append(out, goldenFrame{label: fmt.Sprintf("%v-corr-%d", m.MsgType(), i), m: m, short: plain[i]})
	}
	hello := &ClientHello{Client: 12, Pos: geom.Pt(1, 2)}
	out = append(out, goldenFrame{label: "client-hello-token", m: &ClientHello{Client: 12, Pos: geom.Pt(1, 2), Token: "s3cret"}, short: hello})
	samples, stamped := sampleMessages(), corrMessages(7)
	mixed := []Message{samples[0], samples[1], stamped[3], samples[11], samples[5], stamped[1], samples[17]}
	return append(out, goldenFrame{label: "batch", m: &Batch{Msgs: mixed}})
}

// TestGoldenFrames is the wire format gate. Every golden frame is what
// Marshal, AppendEncode after existing bytes and Size produce today; it
// decodes, with and without a Slab, to a message that encodes to the same
// bytes; and every strict prefix of its body, framed with its own length, is
// refused — except the frame without the optional trailing field, which
// decodes to that form.
func TestGoldenFrames(t *testing.T) {
	frames := goldenFrames()
	var want bytes.Buffer
	for _, g := range frames {
		frame, err := Marshal(g.m)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", g.label, err)
		}
		fmt.Fprintf(&want, "%s %x\n", g.label, frame)
	}
	src, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(goldenPath, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s: review and commit it", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	golden := readGolden(t, src)
	if len(golden) != len(frames) {
		t.Fatalf("%s has %d frames, the test pins %d", goldenPath, len(golden), len(frames))
	}
	var slab Slab
	for _, g := range frames {
		frame, ok := golden[g.label]
		if !ok {
			t.Errorf("%s: not in %s", g.label, goldenPath)
			continue
		}
		if got, _ := Marshal(g.m); !bytes.Equal(got, frame) {
			t.Errorf("%s: Marshal\n got  %x\n want %x", g.label, got, frame)
		}
		if got, _ := AppendEncode([]byte("prefix"), g.m); !bytes.Equal(got, append([]byte("prefix"), frame...)) {
			t.Errorf("%s: AppendEncode after existing bytes\n got  %x\n want prefix+%x", g.label, got, frame)
		}
		if n, err := Size(g.m); err != nil || n != len(frame) {
			t.Errorf("%s: Size = %d, %v; the frame has %d bytes", g.label, n, err, len(frame))
		}
		m, err := Unmarshal(frame)
		if err != nil {
			t.Errorf("%s: Unmarshal: %v", g.label, err)
			continue
		}
		if got, _ := Marshal(m); !bytes.Equal(got, frame) {
			t.Errorf("%s: decoded and encoded again\n got  %x\n want %x", g.label, got, frame)
		}
		ms, err := AppendUnmarshal(nil, frame, &slab)
		if _, isBatch := g.m.(*Batch); !isBatch && len(ms) == 1 {
			m = ms[0]
		} else {
			m = &Batch{Msgs: ms}
		}
		if got, _ := Marshal(m); err != nil || !bytes.Equal(got, frame) {
			t.Errorf("%s: decoded through a Slab (%v) and encoded again\n got  %x\n want %x", g.label, err, got, frame)
		}
		checkPrefixes(t, g, frame)
	}
}

// checkPrefixes frames every strict prefix of frame's body on its own and
// decodes it: only g.short's body may decode, and to g.short.
func checkPrefixes(t *testing.T, g goldenFrame, frame []byte) {
	t.Helper()
	shortLen := -1
	var short []byte
	if g.short != nil {
		var err error
		if short, err = Marshal(g.short); err != nil {
			t.Fatal(err)
		}
		shortLen = len(short) - frameHeaderSize
	}
	body := frame[frameHeaderSize:]
	for n := range len(body) {
		cut := binary.BigEndian.AppendUint32(nil, uint32(n))
		cut = append(append(cut, frame[4]), body[:n]...)
		m, err := Unmarshal(cut)
		switch {
		case n == shortLen && err != nil:
			t.Errorf("%s: the frame without its trailing field is refused: %v", g.label, err)
		case n == shortLen:
			if got, _ := Marshal(m); !bytes.Equal(got, short) {
				t.Errorf("%s: the frame without its trailing field decodes to\n %x\n want %x", g.label, got, short)
			}
		case err == nil:
			t.Errorf("%s: the first %d of %d body bytes decode to %+v", g.label, n, len(body), m)
		}
	}
}

// readGolden parses the golden file into frames by label.
func readGolden(t *testing.T, src []byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	sc := bufio.NewScanner(bytes.NewReader(src))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		label, hexFrame, ok := strings.Cut(sc.Text(), " ")
		frame, err := hex.DecodeString(hexFrame)
		if !ok || err != nil {
			t.Fatalf("%s: bad line %q", goldenPath, sc.Text())
		}
		if _, dup := out[label]; dup {
			t.Fatalf("%s: %s twice", goldenPath, label)
		}
		out[label] = frame
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
