package netio

import (
	"encoding/binary"
	"testing"

	"ulp/internal/ipv4"
	"ulp/internal/link"
)

// fuzzSeeds are IPv4 frames on both link types — a TCP segment, a first
// and a later fragment, a header with options — plus an ARP frame and a
// truncation of each.
func fuzzSeeds() [][]byte {
	var out [][]byte
	for _, l := range []int{link.EthHeaderLen, link.AN1HeaderLen} {
		for _, v := range []struct {
			ihl  int
			frag uint16
		}{{20, 0}, {20, 0x2000}, {20, 0x0010}, {24, 0x4000}} {
			f := make([]byte, l+v.ihl+8)
			binary.BigEndian.PutUint16(f[l-2:], uint16(link.TypeIPv4))
			ip := f[l:]
			ip[0] = 0x40 | byte(v.ihl/4)
			binary.BigEndian.PutUint16(ip[6:], v.frag)
			ip[9] = 6
			copy(ip[12:], []byte{10, 0, 0, 1, 10, 0, 0, 2})
			copy(ip[v.ihl:], []byte{0x04, 0x01, 0x00, 0x50})
			out = append(out, f, f[:l+22])
		}
		arp := make([]byte, l+28)
		binary.BigEndian.PutUint16(arp[l-2:], uint16(link.TypeARP))
		out = append(out, arp)
	}
	return out
}

// refSteerKeys is steerKeys as it stood before filter.Peek, kept
// verbatim as the differential reference.
func refSteerKeys(hdrLen int, frame []byte) (full, wild steerKey, ok bool) {
	if len(frame) < hdrLen+20 {
		return
	}
	if uint16(frame[hdrLen-2])<<8|uint16(frame[hdrLen-1]) != 0x0800 {
		return
	}
	ip := frame[hdrLen:]
	if ip[0]>>4 != 4 {
		return
	}
	if (uint16(ip[6])<<8|uint16(ip[7]))&0x1fff != 0 {
		return // non-first fragment
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < 20 || len(ip) < ihl+4 {
		return
	}
	full = steerKey{
		proto:      ip[9],
		localIP:    ipv4.Addr(ip[16:20]),
		localPort:  uint16(ip[ihl+2])<<8 | uint16(ip[ihl+3]),
		remoteIP:   ipv4.Addr(ip[12:16]),
		remotePort: uint16(ip[ihl])<<8 | uint16(ip[ihl+1]),
	}
	wild = full
	wild.remoteIP = ipv4.Addr{}
	wild.remotePort = 0
	return full, wild, true
}

// FuzzSteerKeys: on arbitrary bytes and both link types, the steering keys
// read through filter.Peek equal the pre-Peek reader's exactly.
func FuzzSteerKeys(f *testing.F) {
	for _, fr := range fuzzSeeds() {
		f.Add(fr)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, l := range []int{link.EthHeaderLen, link.AN1HeaderLen} {
			full, wild, ok := steerKeys(l, frame)
			rFull, rWild, rOK := refSteerKeys(l, frame)
			if full != rFull || wild != rWild || ok != rOK {
				t.Fatalf("hdrLen %d: steerKeys = %+v %+v %v, reference %+v %+v %v",
					l, full, wild, ok, rFull, rWild, rOK)
			}
		}
	})
}
