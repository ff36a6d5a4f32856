package filter

import (
	"encoding/binary"
	"testing"
)

// Link header lengths of the two link types: Ethernet and AN1.
const (
	ethHdrLen = 14
	an1HdrLen = 18
)

// seedFrame builds an IPv4 frame with an hdrLen-byte link header, an
// ihl-byte IP header, the given protocol, flags/fragment word, endpoints
// and payload (which starts with the transport ports).
func seedFrame(hdrLen, ihl int, proto uint8, fragWord uint16, src, dst [4]byte, payload []byte) []byte {
	f := make([]byte, hdrLen+ihl+len(payload))
	binary.BigEndian.PutUint16(f[hdrLen-2:], 0x0800)
	ip := f[hdrLen:]
	ip[0] = 0x40 | byte(ihl/4)
	binary.BigEndian.PutUint16(ip[6:], fragWord)
	ip[9] = proto
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])
	copy(ip[ihl:], payload)
	return f
}

// seedFrames is the fuzz corpus: for both link types, a TCP segment, a
// UDP datagram, a first and a non-first fragment, a header with options,
// a bad IHL, an ARP frame, and truncations of each.
func seedFrames() [][]byte {
	src, dst := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	ports := []byte{0x04, 0x01, 0x00, 0x50, 1, 2, 3, 4}
	var out [][]byte
	for _, l := range []int{ethHdrLen, an1HdrLen} {
		frames := [][]byte{
			seedFrame(l, 20, 6, 0, src, dst, ports),
			seedFrame(l, 20, 17, 0, src, dst, ports),
			seedFrame(l, 20, 6, 0x2000, src, dst, ports), // first fragment (MF)
			seedFrame(l, 20, 6, 0x0010, src, dst, ports), // non-first fragment
			seedFrame(l, 24, 6, 0x4000, src, dst, ports), // DF, one option word
			seedFrame(l, 20, 6, 0, src, dst, ports[:2]),  // ports cut short
		}
		bad := seedFrame(l, 20, 6, 0, src, dst, ports)
		bad[l] = 0x44 // IHL below the minimum
		arp := make([]byte, l+28)
		binary.BigEndian.PutUint16(arp[l-2:], 0x0806)
		frames = append(frames, bad, arp)
		for _, f := range frames {
			out = append(out, f, f[:len(f)/2])
		}
	}
	return out
}

// refMatch is Spec.Match as it stood before Peek, kept verbatim as the
// differential reference.
func refMatch(s Spec, frame []byte) bool {
	l := s.LinkHdrLen
	if len(frame) < l+20 {
		return false
	}
	if binary.BigEndian.Uint16(frame[l-2:]) != 0x0800 {
		return false
	}
	ip := frame[l:]
	if ip[0]>>4 != 4 {
		return false
	}
	if ip[9] != s.Proto {
		return false
	}
	if [4]byte(ip[16:20]) != s.LocalIP {
		return false
	}
	if s.RemoteIP != ([4]byte{}) && [4]byte(ip[12:16]) != s.RemoteIP {
		return false
	}
	if binary.BigEndian.Uint16(ip[6:])&0x1fff != 0 {
		return false // non-first fragment: no transport header
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < 20 || len(ip) < ihl+4 {
		return false
	}
	srcPort := binary.BigEndian.Uint16(ip[ihl:])
	dstPort := binary.BigEndian.Uint16(ip[ihl+2:])
	if dstPort != s.LocalPort {
		return false
	}
	if s.RemotePort != 0 && srcPort != s.RemotePort {
		return false
	}
	return true
}

// specsFor derives predicates from the frame's own header bytes — exact,
// listener, and both half wildcards — so that arbitrary frames exercise
// Match's accept path as well as its rejects.
func specsFor(hdrLen int, frame []byte) []Spec {
	var b [64]byte
	if hdrLen < len(frame) {
		copy(b[:], frame[hdrLen:])
	}
	ihl := int(b[0]&0x0f) * 4
	exact := Spec{
		LinkHdrLen: hdrLen, Proto: b[9],
		LocalIP: [4]byte(b[16:20]), LocalPort: binary.BigEndian.Uint16(b[ihl+2:]),
		RemoteIP: [4]byte(b[12:16]), RemotePort: binary.BigEndian.Uint16(b[ihl:]),
	}
	listener, ipOnly, portOnly := exact, exact, exact
	listener.RemoteIP, listener.RemotePort = [4]byte{}, 0
	ipOnly.RemotePort = 0
	portOnly.RemoteIP = [4]byte{}
	fixed := testSpec
	fixed.LinkHdrLen = hdrLen
	return []Spec{exact, listener, ipOnly, portOnly, fixed}
}

// FuzzPeek feeds arbitrary bytes to the frame parser: Peek must not panic
// at any link header length, and Match over it must agree exactly with the
// pre-Peek predicate on both link types.
func FuzzPeek(f *testing.F) {
	for _, fr := range seedFrames() {
		f.Add(uint8(ethHdrLen), fr)
	}
	f.Fuzz(func(t *testing.T, hdr uint8, frame []byte) {
		if tu, ok := Peek(int(hdr), frame); !ok || !tu.Ports {
			if tu.SrcPort != 0 || tu.DstPort != 0 {
				t.Fatalf("ports %d/%d reported without Ports", tu.SrcPort, tu.DstPort)
			}
		}
		for _, l := range []int{ethHdrLen, an1HdrLen} {
			for _, s := range specsFor(l, frame) {
				if got, want := s.Match(frame), refMatch(s, frame); got != want {
					t.Fatalf("hdrLen %d spec %+v: Match=%v, reference=%v", l, s, got, want)
				}
			}
		}
	})
}

// TestPeekReadsEveryField pins the tuple and fragment facts on seeds whose
// answers are known.
func TestPeekReadsEveryField(t *testing.T) {
	src, dst := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	ports := []byte{0x04, 0x01, 0x00, 0x50}
	for _, l := range []int{ethHdrLen, an1HdrLen} {
		tu, ok := Peek(l, seedFrame(l, 24, 6, 0x4000, src, dst, ports))
		want := Tuple{Proto: 6, SrcIP: src, DstIP: dst, SrcPort: 1025, DstPort: 80, Ports: true}
		if !ok || tu != want {
			t.Fatalf("hdrLen %d: Peek = %+v %v, want %+v", l, tu, ok, want)
		}
		tu, _ = Peek(l, seedFrame(l, 20, 6, 0x2000, src, dst, ports))
		if !tu.Frag || !tu.Ports {
			t.Fatalf("hdrLen %d: first fragment = %+v, want Frag and Ports", l, tu)
		}
		tu, _ = Peek(l, seedFrame(l, 20, 6, 0x0010, src, dst, ports))
		if !tu.Frag || tu.Ports {
			t.Fatalf("hdrLen %d: later fragment = %+v, want Frag without Ports", l, tu)
		}
	}
	if _, ok := Peek(ethHdrLen, make([]byte, ethHdrLen+19)); ok {
		t.Fatal("Peek accepted a frame shorter than an IPv4 header")
	}
}

func TestPeekAllocFree(t *testing.T) {
	frame := seedFrame(ethHdrLen, 20, 6, 0, [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, []byte{0, 1, 0, 2})
	if n := testing.AllocsPerRun(100, func() { Peek(ethHdrLen, frame) }); n != 0 {
		t.Fatalf("Peek allocates %v times per call", n)
	}
}
