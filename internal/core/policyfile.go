package core

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/policy"
)

// ParsePolicies reads a policy specification, one policy per line:
//
//	reach <name> <src> <dst> <prefix|any> all|some|none [tcp|udp|icmp [port [porthi]]]
//	waypoint <name> <src> <dst> <via> <prefix|any>
//	loopfree <name> <prefix|any>
//	blackholefree <name> <prefix|any>
//
// Header spaces are plain dataplane.Match values, so the parsed
// policies register on any verifier. Blank lines and '#' comments are
// ignored.
func ParsePolicies(text string) ([]policy.Policy, error) {
	var out []policy.Policy
	names := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(text))
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		p, err := parsePolicyLine(line)
		if err != nil {
			return nil, fmt.Errorf("policy line %d: %w", lineno, err)
		}
		if names[p.Name()] {
			return nil, fmt.Errorf("policy line %d: duplicate policy name %q", lineno, p.Name())
		}
		names[p.Name()] = true
		out = append(out, p)
	}
	return out, sc.Err()
}

func parsePolicyLine(line string) (policy.Policy, error) {
	f := strings.Fields(line)
	hdrOf := func(s string) (dataplane.Match, error) {
		if s == "any" {
			return dataplane.MatchAll, nil
		}
		p, err := netcfg.ParsePrefix(s)
		if err != nil {
			return dataplane.Match{}, err
		}
		return dataplane.Match{Dst: p}, nil
	}
	switch f[0] {
	case "reach":
		if len(f) < 6 || len(f) > 9 {
			return nil, fmt.Errorf("want %q", "reach <name> <src> <dst> <prefix> all|some|none [proto [port [porthi]]]")
		}
		hdr, err := hdrOf(f[4])
		if err != nil {
			return nil, err
		}
		var mode policy.ReachMode
		switch f[5] {
		case "all":
			mode = policy.ReachAll
		case "some":
			mode = policy.ReachSome
		case "none":
			mode = policy.ReachNone
		default:
			return nil, fmt.Errorf("bad mode %q", f[5])
		}
		if len(f) >= 7 {
			switch f[6] {
			case "tcp":
				hdr.Proto = netcfg.ProtoTCP
			case "udp":
				hdr.Proto = netcfg.ProtoUDP
			case "icmp":
				hdr.Proto = netcfg.ProtoICMP
			case "ip":
				hdr.Proto = netcfg.ProtoIPAny
			default:
				return nil, fmt.Errorf("bad protocol %q", f[6])
			}
		}
		if len(f) >= 8 {
			lo, err := strconv.Atoi(f[7])
			if err != nil || lo < 0 || lo > 65535 {
				return nil, fmt.Errorf("bad port %q", f[7])
			}
			hi := lo
			if len(f) == 9 {
				if hi, err = strconv.Atoi(f[8]); err != nil || hi < lo || hi > 65535 {
					return nil, fmt.Errorf("bad port range")
				}
			}
			hdr.DstPortLo, hdr.DstPortHi = uint16(lo), uint16(hi)
		}
		return policy.Reachability{PolicyName: f[1], Src: f[2], Dst: f[3], Hdr: hdr, Mode: mode}, nil
	case "waypoint":
		if len(f) != 6 {
			return nil, fmt.Errorf("want %q", "waypoint <name> <src> <dst> <via> <prefix>")
		}
		hdr, err := hdrOf(f[5])
		if err != nil {
			return nil, err
		}
		return policy.Waypoint{PolicyName: f[1], Src: f[2], Dst: f[3], Via: f[4], Hdr: hdr}, nil
	case "loopfree":
		if len(f) != 3 {
			return nil, fmt.Errorf("want %q", "loopfree <name> <prefix>")
		}
		hdr, err := hdrOf(f[2])
		if err != nil {
			return nil, err
		}
		return policy.LoopFree{PolicyName: f[1], Scope: hdr}, nil
	case "blackholefree":
		if len(f) != 3 {
			return nil, fmt.Errorf("want %q", "blackholefree <name> <prefix>")
		}
		hdr, err := hdrOf(f[2])
		if err != nil {
			return nil, err
		}
		return policy.BlackholeFree{PolicyName: f[1], Scope: hdr}, nil
	}
	return nil, fmt.Errorf("unknown policy kind %q", f[0])
}
