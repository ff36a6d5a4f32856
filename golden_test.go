package ulp

// Golden frame digests. Every organization's wire behaviour is pinned to a
// checked-in digest of its complete frame trace: a seeded lossy echo over
// two concurrent connections, with loss, duplication and reordering on the
// wire so that retransmit, delayed-ACK and TIME_WAIT timers all fire. The
// digest covers every frame's virtual timestamp and bytes, so any change to
// protocol code, structural cost charging, timer placement or ISS selection
// shows up as a mismatch.
//
// The digests in testdata/frame_digests.txt were captured from the tree
// before the monolithic organizations were folded into one shell; they
// record the behaviour the refactor had to preserve. A mismatch means the
// wire behaviour changed. Regenerate them only for a deliberate,
// documented change in modeled behaviour, never to make a refactor pass.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
	"time"

	"ulp/internal/kern"
	"ulp/internal/pkt"
	"ulp/internal/stacks"
	"ulp/internal/tcp"
	"ulp/internal/wire"
)

// goldenConfigs are the pinned configurations: both monolithic
// organizations, and the library with each timer backend.
var goldenConfigs = []struct {
	name  string
	org   Org
	net   Net
	wheel bool
}{
	{"inkernel/ethernet", OrgInKernel, Ethernet, false},
	{"inkernel/an1", OrgInKernel, AN1, false},
	{"singleserver/ethernet", OrgSingleServer, Ethernet, false},
	{"userlib/ethernet", OrgUserLib, Ethernet, false},
	{"userlib/an1/wheel", OrgUserLib, AN1, true},
}

// goldenEcho runs the seeded two-connection echo and returns the frame
// count, the FNV-64a digest of every frame's (timestamp, bytes), and the
// clients' summed retransmission and delayed-ACK counters.
func goldenEcho(t *testing.T, org Org, net Net, wheel bool) (int, string, tcp.Stats) {
	t.Helper()
	w := NewWorld(Config{
		Org: org, Net: net, TimerWheel: wheel,
		Faults: &wire.Faults{
			Seed:         11,
			LossProb:     0.04,
			DupProb:      0.02,
			ReorderProb:  0.04,
			ReorderDelay: 2 * time.Millisecond,
		},
	})
	h := fnv.New64a()
	frames := 0
	var ts [8]byte
	w.TraceFrames(func(at time.Duration, frame *pkt.Buf) {
		binary.BigEndian.PutUint64(ts[:], uint64(at))
		h.Write(ts[:])
		h.Write(frame.Bytes())
		frames++
	})

	const conns, size = 2, 40000
	data := pattern(size)
	srv := w.Node(0).App("server")
	cli := w.Node(1).App("client")
	srv.Go("srv", func(th *kern.Thread) {
		l, err := srv.Stack.Listen(th, 80, stacks.Options{})
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for i := 0; i < conns; i++ {
			c, err := l.Accept(th)
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			srv.Go("echo", func(th *kern.Thread) {
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(th, buf)
					if err != nil || n == 0 {
						break
					}
					if _, err := c.Write(th, buf[:n]); err != nil {
						break
					}
				}
				c.Close(th)
			})
		}
	})
	done := 0
	var sum tcp.Stats
	for i := 0; i < conns; i++ {
		cli.GoAfter(time.Duration(i+1)*time.Millisecond, "cli", func(th *kern.Thread) {
			c, err := cli.Stack.Connect(th, w.Endpoint(0, 80), stacks.Options{})
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			var got []byte
			buf := make([]byte, 4096)
			for written := 0; len(got) < size; {
				if written < size {
					end := min(written+1024, size)
					if _, err := c.Write(th, data[written:end]); err != nil {
						t.Errorf("client write: %v", err)
						return
					}
					written = end
				}
				n, err := c.Read(th, buf)
				if err != nil || n == 0 {
					t.Errorf("client read: n=%d err=%v", n, err)
					return
				}
				got = append(got, buf[:n]...)
			}
			if string(got) != string(data) {
				t.Error("echo mismatch")
			}
			st := c.Stats()
			sum.Rexmits += st.Rexmits
			sum.DelayedAcks += st.DelayedAcks
			c.Close(th)
			done++
		})
	}
	w.RunUntil(10*time.Minute, func() bool { return done == conns })
	if done != conns {
		t.Fatalf("%d of %d echoes finished", done, conns)
	}
	w.Run(2 * time.Minute) // FIN exchange and TIME_WAIT expiry
	return frames, fmt.Sprintf("%016x", h.Sum64()), sum
}

// readGolden loads name -> "frames digest" from the checked-in file.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/frame_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		want[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFrameDigestsMatchGolden replays every pinned configuration and
// requires its frame digest to equal the checked-in one.
func TestFrameDigestsMatchGolden(t *testing.T) {
	want := readGolden(t)
	for _, gc := range goldenConfigs {
		t.Run(gc.name, func(t *testing.T) {
			frames, digest, st := goldenEcho(t, gc.org, gc.net, gc.wheel)
			got := fmt.Sprintf("%d %s", frames, digest)
			t.Logf("%s %s (client rexmits %d, delayed acks %d)", gc.name, got, st.Rexmits, st.DelayedAcks)
			if st.Rexmits == 0 || st.DelayedAcks == 0 {
				t.Error("the fault plan no longer fires both the retransmit and the delayed-ACK timer")
			}
			if w, ok := want[gc.name]; !ok {
				t.Errorf("no golden digest for %s", gc.name)
			} else if got != w {
				t.Errorf("frame digest %s, golden %s", got, w)
			}
		})
	}
}
