package filter

import "encoding/binary"

// Tuple is what every software demultiplexer in the system reads from an
// inbound IPv4 frame: the protocol and both endpoints, plus the fragment
// facts that decide whether the ports can be read at all.
type Tuple struct {
	Proto            uint8
	SrcIP, DstIP     [4]byte
	SrcPort, DstPort uint16
	// Frag is set for any piece of a fragmented datagram: MF set or a
	// nonzero fragment offset.
	Frag bool
	// Ports is set when SrcPort and DstPort were read: the packet is not a
	// non-first fragment, its IHL is valid, and the frame holds the first
	// four transport bytes. The ports are zero otherwise.
	Ports bool
}

// Peek reads the five-tuple of the IPv4 packet in a link frame whose
// hdrLen-byte link header ends in the EtherType. ok is false when the frame
// is shorter than a minimal IPv4 header or is not IPv4 (EtherType or
// version). It is the one reader of a frame's five-tuple: it never
// allocates, and never panics whatever the bytes.
func Peek(hdrLen int, frame []byte) (t Tuple, ok bool) {
	if hdrLen < 2 || len(frame) < hdrLen+20 {
		return t, false
	}
	if binary.BigEndian.Uint16(frame[hdrLen-2:]) != 0x0800 {
		return t, false
	}
	ip := frame[hdrLen:]
	if ip[0]>>4 != 4 {
		return t, false
	}
	t.Proto = ip[9]
	t.SrcIP = [4]byte(ip[12:16])
	t.DstIP = [4]byte(ip[16:20])
	frag := binary.BigEndian.Uint16(ip[6:])
	t.Frag = frag&0x3fff != 0
	if ihl := int(ip[0]&0x0f) * 4; frag&0x1fff == 0 && ihl >= 20 && len(ip) >= ihl+4 {
		t.SrcPort = binary.BigEndian.Uint16(ip[ihl:])
		t.DstPort = binary.BigEndian.Uint16(ip[ihl+2:])
		t.Ports = true
	}
	return t, true
}
