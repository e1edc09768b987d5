package prefetch

import "slices"

// CatalogEntry names one evaluated frontend configuration: a design
// constructor, which declares what else its core needs (Bufferer).
type CatalogEntry struct {
	Name string
	New  func() Design
}

// catalog is every evaluated design at its paper configuration, in report
// order.
var catalog = []CatalogEntry{
	{Name: "baseline", New: func() Design { return NewBaseline(2048) }},
	{Name: "NL", New: func() Design { return NewNXL(1, 2048) }},
	{Name: "N2L", New: func() Design { return NewNXL(2, 2048) }},
	{Name: "N4L", New: func() Design { return NewNXL(4, 2048) }},
	{Name: "N8L", New: func() Design { return NewNXL(8, 2048) }},
	{Name: "NL-miss", New: func() Design { return NewNXLTriggered(1, 2048, TriggerMiss) }},
	{Name: "NL-tagged", New: func() Design { return NewNXLTriggered(1, 2048, TriggerTagged) }},
	{Name: "SN4L", New: func() Design { return NewSN4L(16<<10, 2048) }},
	{Name: "Dis", New: func() Design { return NewDis(4<<10, 4, 2048) }},
	{Name: "SN4L+Dis", New: func() Design {
		return NewProactive(DefaultProactiveConfig())
	}},
	{Name: "SN4L+Dis+BTB", New: func() Design {
		c := DefaultProactiveConfig()
		c.WithBTBPrefetch = true
		return NewProactive(c)
	}},
	{Name: "discontinuity", New: func() Design { return NewDiscontinuity(8<<10, 8, 2048) }},
	{Name: "RDIP", New: func() Design { return NewRDIP(1024, 2048) }},
	{Name: "PIF", New: func() Design { return NewPIF(DefaultPIFConfig()) }},
	{Name: "confluence", New: func() Design { return NewConfluence(DefaultConfluenceConfig()) }},
	{Name: "boomerang", New: func() Design { return NewBoomerang(DefaultBoomerangConfig()) }},
	{Name: "shotgun", New: func() Design { return NewShotgun(DefaultShotgunDesignConfig()) }},
}

// Catalog returns every evaluated design at its paper configuration, in a
// fixed report order. It is the single source of truth for the design set:
// cmd/dncsim, the benchmark harness, the job server and its workers,
// pkg/dncfront and the differential validation harness take their designs
// from it, as the whole list or by name through FindDesign, so "run every
// design" always means the same set.
func Catalog() []CatalogEntry { return slices.Clone(catalog) }

// FindDesign returns the catalog entry with the given name.
func FindDesign(name string) (CatalogEntry, bool) {
	i := slices.IndexFunc(catalog, func(e CatalogEntry) bool { return e.Name == name })
	if i < 0 {
		return CatalogEntry{}, false
	}
	return catalog[i], true
}
