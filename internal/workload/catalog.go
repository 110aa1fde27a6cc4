package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"diversecast/internal/core"
	"diversecast/internal/dist"
)

// Catalog is a named broadcast database: a realistic scenario with
// human-readable item titles, used by the CLI tools (-catalog).
type Catalog struct {
	Name        string
	Description string
	DB          *core.Database
	// Titles maps item ID to a display title.
	Titles map[int]string
}

// contentClass describes one media class of the MediaPortal catalog.
type contentClass struct {
	label   string
	count   int
	minSize float64
	maxSize float64
}

// MediaPortal models the paper's motivating "modern information
// system": a portal broadcasting text, still images, audio clips and
// video trailers — item sizes spanning three orders of magnitude while
// popularity follows a Zipf law across the whole catalog.
func MediaPortal(seed int64) (*Catalog, error) {
	classes := []contentClass{
		{label: "headline", count: 40, minSize: 1, maxSize: 5},
		{label: "image", count: 30, minSize: 10, maxSize: 50},
		{label: "audio", count: 20, minSize: 80, maxSize: 300},
		{label: "video", count: 10, minSize: 500, maxSize: 2000},
	}
	return classCatalog("media-portal",
		"mixed text/image/audio/video portal with Zipf popularity", seed, 0.9, classes)
}

// NewsTicker models the conventional broadcasting environment the
// prior work assumed: text bulletins of identical size. VF^K and
// DRP-CDS should perform near-identically on it (the paper's Φ=0
// case in Figure 4).
func NewsTicker(seed int64) (*Catalog, error) {
	n := 80
	freqs, err := dist.Zipf(n, 1.0)
	if err != nil {
		return nil, err
	}
	items := make([]core.Item, n)
	titles := make(map[int]string, n)
	for i := range items {
		items[i] = core.Item{ID: i + 1, Freq: freqs[i], Size: 1}
		titles[i+1] = fmt.Sprintf("bulletin-%03d", i+1)
	}
	db, err := core.NewDatabase(items)
	if err != nil {
		return nil, err
	}
	return &Catalog{
		Name:        "news-ticker",
		Description: "conventional equal-size text bulletins (Φ=0)",
		DB:          db,
		Titles:      titles,
	}, nil
}

// TrafficInfo models a roadside telematics broadcast: many small
// incident notices, a band of medium route maps, and a few large
// sensor bundles, with popularity skewed toward incidents.
func TrafficInfo(seed int64) (*Catalog, error) {
	classes := []contentClass{
		{label: "incident", count: 60, minSize: 1, maxSize: 3},
		{label: "routemap", count: 25, minSize: 20, maxSize: 60},
		{label: "sensorbundle", count: 15, minSize: 150, maxSize: 400},
	}
	return classCatalog("traffic-info",
		"telematics broadcast: incidents, route maps, sensor bundles", seed, 1.2, classes)
}

// classCatalog builds a catalog from content classes: sizes are drawn
// per class, the Zipf popularity ranking is assigned across the whole
// catalog in a seeded random interleaving (so popularity and size are
// independent, as in the paper's model).
func classCatalog(name, description string, seed int64, theta float64, classes []contentClass) (*Catalog, error) {
	rng := rand.New(rand.NewSource(seed))
	var total int
	for _, c := range classes {
		if c.count < 1 {
			return nil, fmt.Errorf("workload: class %q has count %d", c.label, c.count)
		}
		total += c.count
	}
	freqs, err := dist.Zipf(total, theta)
	if err != nil {
		return nil, err
	}

	// Draw sizes and labels per class.
	type draft struct {
		label string
		size  float64
	}
	drafts := make([]draft, 0, total)
	for _, c := range classes {
		sizes, err := dist.UniformSizes(rng, c.count, c.minSize, c.maxSize)
		if err != nil {
			return nil, fmt.Errorf("workload: class %q: %w", c.label, err)
		}
		for i, z := range sizes {
			drafts = append(drafts, draft{label: fmt.Sprintf("%s-%03d", c.label, i+1), size: z})
		}
	}
	// Shuffle so popularity rank is independent of class.
	rng.Shuffle(len(drafts), func(i, j int) { drafts[i], drafts[j] = drafts[j], drafts[i] })

	items := make([]core.Item, total)
	titles := make(map[int]string, total)
	for i, d := range drafts {
		items[i] = core.Item{ID: i + 1, Freq: freqs[i], Size: d.size}
		titles[i+1] = d.label
	}
	db, err := core.NewDatabase(items)
	if err != nil {
		return nil, err
	}
	return &Catalog{Name: name, Description: description, DB: db, Titles: titles}, nil
}

// Catalogs lists the built-in scenario constructors by name, for the
// CLI tools.
func Catalogs() []string { return []string{"media-portal", "news-ticker", "traffic-info"} }

// CatalogByName constructs the named built-in catalog.
func CatalogByName(name string, seed int64) (*Catalog, error) {
	switch name {
	case "media-portal":
		return MediaPortal(seed)
	case "news-ticker":
		return NewsTicker(seed)
	case "traffic-info":
		return TrafficInfo(seed)
	default:
		sorted := append([]string(nil), Catalogs()...)
		sort.Strings(sorted)
		return nil, fmt.Errorf("workload: unknown catalog %q (have %v)", name, sorted)
	}
}
