package registry

import (
	"encoding/binary"
	"testing"

	"ulp/internal/costs"
	"ulp/internal/ipv4"
	"ulp/internal/kern"
	"ulp/internal/link"
	"ulp/internal/netdev"
	"ulp/internal/netio"
	"ulp/internal/sim"
	"ulp/internal/tcp"
	"ulp/internal/wire"
)

// refClassify is Federation.classify as it stood before filter.Peek,
// kept verbatim as the differential reference.
func (f *Federation) refClassify(frame []byte) int {
	hdrLen := f.mod.Device().HdrLen()
	if len(frame) < hdrLen {
		return 0
	}
	if uint16(frame[hdrLen-2])<<8|uint16(frame[hdrLen-1]) != 0x0800 {
		return 0 // ARP and everything non-IP
	}
	ip := frame[hdrLen:]
	if len(ip) < ipv4.HeaderLen || ip[0]>>4 != 4 {
		return 0
	}
	if ip[9] != ipv4.ProtoTCP {
		return 0 // UDP and friends: shard 0 owns the datagram plane
	}
	if (uint16(ip[6])<<8|uint16(ip[7]))&0x3fff != 0 {
		// Any fragment (MF set or nonzero offset): a later fragment carries
		// no TCP header to peek at, so route the whole datagram's fragments
		// by the IP pair alone — they all land on one shard's reassembler.
		local := tcp.Endpoint{IP: ipv4.Addr(ip[16:20])}
		peer := tcp.Endpoint{IP: ipv4.Addr(ip[12:16])}
		return int(endpointHash(local, peer) % uint32(len(f.shards)))
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < ipv4.HeaderLen || len(ip) < ihl+4 {
		return 0
	}
	local := tcp.Endpoint{IP: ipv4.Addr(ip[16:20]),
		Port: uint16(ip[ihl+2])<<8 | uint16(ip[ihl+3])}
	peer := tcp.Endpoint{IP: ipv4.Addr(ip[12:16]),
		Port: uint16(ip[ihl])<<8 | uint16(ip[ihl+1])}
	return f.ownerEndpoints(local, peer)
}

// fuzzFederation builds a 4-shard federation on an Ethernet or AN1 host.
func fuzzFederation(an1 bool) *Federation {
	s := sim.New()
	h := kern.NewHost(s, "h", costs.Default())
	var dev netdev.Device
	if an1 {
		dev = netdev.NewAN1(h, wire.New(s, wire.AN1Config()), link.MakeAddr(1), 0)
	} else {
		dev = netdev.NewLance(h, wire.New(s, wire.EthernetConfig()), link.MakeAddr(1))
	}
	return NewFederation(s, netio.New(h, dev), ipv4.Addr{10, 0, 0, 1}, FederationConfig{Shards: 4})
}

// FuzzClassify: on arbitrary bytes and both link types, shard
// classification read through filter.Peek equals the pre-Peek reader's
// exactly. Seeds cover TCP to an ephemeral and a service port, UDP, a
// first and a later fragment, IP options, a bad IHL and ARP.
func FuzzClassify(f *testing.F) {
	feds := []*Federation{fuzzFederation(false), fuzzFederation(true)}
	for _, fed := range feds {
		l := fed.mod.Device().HdrLen()
		for _, v := range []struct {
			ihl     int
			proto   uint8
			frag    uint16
			dstPort uint16
		}{{20, 6, 0, 80}, {20, 6, 0, 50000}, {20, 17, 0, 80}, {20, 6, 0x2000, 80},
			{20, 6, 0x0010, 80}, {24, 6, 0x4000, 50000}, {16, 6, 0, 80}} {
			fr := make([]byte, l+24+8)
			binary.BigEndian.PutUint16(fr[l-2:], uint16(link.TypeIPv4))
			ip := fr[l:]
			ip[0] = 0x40 | byte(v.ihl/4)
			binary.BigEndian.PutUint16(ip[6:], v.frag)
			ip[9] = v.proto
			copy(ip[12:], []byte{10, 0, 0, 2, 10, 0, 0, 1})
			ihl := max(v.ihl, 20)
			binary.BigEndian.PutUint16(ip[ihl:], 1025)
			binary.BigEndian.PutUint16(ip[ihl+2:], v.dstPort)
			f.Add(fr)
			f.Add(fr[:l+21])
		}
		arp := make([]byte, l+28)
		binary.BigEndian.PutUint16(arp[l-2:], uint16(link.TypeARP))
		f.Add(arp)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, fed := range feds {
			if got, want := fed.classify(frame), fed.refClassify(frame); got != want {
				t.Fatalf("hdrLen %d: classify = %d, reference %d",
					fed.mod.Device().HdrLen(), got, want)
			}
		}
	})
}
