package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"gridmtd/internal/grid/cases"
)

// FromSpec converts an embedded case description into a live Network. The
// conversion performs exactly the arithmetic the historical hand-written
// constructors performed — in particular XMin/XMax = (1 ∓ EtaMax)·X for
// D-FACTS branches — so networks built from the re-expressed case data are
// bitwise identical to the ones the constructors used to return.
func FromSpec(s *cases.Spec) *Network {
	buses := make([]Bus, s.N())
	for i, l := range s.LoadsMW {
		buses[i] = Bus{Index: i + 1, LoadMW: l}
	}
	brs := make([]Branch, s.L())
	for i, b := range s.Branches {
		limit := b.LimitMW
		if limit == 0 {
			limit = Unlimited
		}
		br := Branch{From: b.From, To: b.To, X: b.X, LimitMW: limit, XMin: b.X, XMax: b.X}
		if s.HasDFACTS(i + 1) {
			br.HasDFACTS = true
			br.XMin = (1 - s.EtaMax) * b.X
			br.XMax = (1 + s.EtaMax) * b.X
		}
		brs[i] = br
	}
	gens := make([]Generator, len(s.Gens))
	for i, g := range s.Gens {
		gens[i] = Generator{Bus: g.Bus, CostPerMWh: g.CostPerMWh, MinMW: g.MinMW, MaxMW: g.MaxMW}
	}
	return &Network{
		Name:     s.Name,
		BaseMVA:  s.BaseMVA,
		SlackBus: s.SlackBus,
		Buses:    buses,
		Branches: brs,
		Gens:     gens,
	}
}

// CaseInfo summarizes one registered case for listings.
type CaseInfo struct {
	// Name is the registry key; Aliases are alternative lookup names.
	Name    string
	Aliases []string
	// Title is a one-line description.
	Title string
	// Buses, Branches and DFACTS count the case's size.
	Buses, Branches, DFACTS int
}

// Cases lists the registered cases ordered by size.
func Cases() []CaseInfo {
	specs := cases.All()
	out := make([]CaseInfo, len(specs))
	for i, s := range specs {
		out[i] = CaseInfo{
			Name:     s.Name,
			Aliases:  append([]string(nil), s.Aliases...),
			Title:    s.Title,
			Buses:    s.N(),
			Branches: s.L(),
			DFACTS:   len(s.DFACTS),
		}
	}
	return out
}

// CaseNames returns the primary names of the registered cases, smallest
// system first.
func CaseNames() []string { return cases.Names() }

var registryHash = sync.OnceValue(func() string {
	h := sha256.New()
	for _, s := range cases.All() {
		fmt.Fprintf(h, "case %s %q base=%g slack=%d eta=%g\n", s.Name, s.Title, s.BaseMVA, s.SlackBus, s.EtaMax)
		fmt.Fprintf(h, "loads %v\n", s.LoadsMW)
		for _, b := range s.Branches {
			fmt.Fprintf(h, "br %d %d %v %v\n", b.From, b.To, b.X, b.LimitMW)
		}
		for _, g := range s.Gens {
			fmt.Fprintf(h, "gen %d %v %v %v\n", g.Bus, g.CostPerMWh, g.MinMW, g.MaxMW)
		}
		fmt.Fprintf(h, "dfacts %v\n", s.DFACTS)
	}
	return hex.EncodeToString(h.Sum(nil))
})

// RegistryHash returns a stable SHA-256 content hash over the embedded
// case registry — every number that shapes a Network (loads, reactances,
// ratings, generator economics, D-FACTS deployment). Persistent caches key
// their entries on it so responses computed against one registry build are
// never served against another: editing any case data changes the hash and
// silently invalidates every stale entry.
func RegistryHash() string { return registryHash() }

// CaseByName builds a fresh, validated Network for the named case (primary
// name or alias, case-insensitive). The error for an unknown name lists
// what is available.
func CaseByName(name string) (*Network, error) {
	s, ok := cases.ByName(name)
	if !ok {
		return nil, fmt.Errorf("grid: unknown case %q (available: %s)", name, strings.Join(cases.Names(), ", "))
	}
	n := FromSpec(s)
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("grid: case %q: %w", name, err)
	}
	return n, nil
}

// mustCase builds a registered case, panicking on registry or validation
// errors — embedded case data is covered by tests, so this cannot fail at
// run time.
func mustCase(name string) *Network {
	n, err := CaseByName(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Case4GS returns the 4-bus test system of the paper's motivating example
// (Section IV-B); see the case4gs entry in internal/grid/cases for the
// reverse-engineered economics.
func Case4GS() *Network { return mustCase("case4gs") }

// CaseIEEE14 returns the IEEE 14-bus system configured exactly as in the
// paper's evaluation (Section VII-A); see the ieee14 entry in
// internal/grid/cases.
func CaseIEEE14() *Network { return mustCase("ieee14") }

// CaseIEEE30 returns the IEEE 30-bus system used for the paper's
// scalability experiment (Fig. 6b); see the ieee30 entry in
// internal/grid/cases.
func CaseIEEE30() *Network { return mustCase("ieee30") }

// CaseIEEE57 returns the IEEE 57-bus system, the first case beyond the
// paper's own evaluation sizes; see the ieee57 entry in
// internal/grid/cases for the reproduction choices.
func CaseIEEE57() *Network { return mustCase("ieee57") }

// CaseIEEE118 returns the IEEE 118-bus system the sparse backend exists
// for; see the ieee118 entry in internal/grid/cases for the reproduction
// choices.
func CaseIEEE118() *Network { return mustCase("ieee118") }
