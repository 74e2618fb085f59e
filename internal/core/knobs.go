package core

// The engine-knob table: one row per setting that has one value per run
// and that a sweep can cross instead. Every consumer loops over it —
// trafficsim's flags (job.KnobFlags), PointOptions, planMatrix, the
// cache preimage and the sweep-axis inventory — so adding a knob is one
// row plus its job.Request and MatrixOptions fields (DESIGN.md "Engine
// knobs").

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/memsys"
	"repro/internal/mesh"
)

// DefaultThreads is the thread count of a run that pins none.
const DefaultThreads = 16

// Knob is one engine knob. Its Name is also its trafficsim flag, its
// job.Request JSON field, its sweep axis and its key in a point's cache
// preimage.
type Knob struct {
	Name string
	Help string // the flag's usage; its default is Default()
	// Desc describes the sweep axis, Values lists its enumerable values
	// (nil = open-ended) and Hint gives the value shape.
	Desc   string
	Values func() []string
	Hint   string
	// FlagFloor, if set, names the value in the error an explicit flag
	// below 1 gets: the Request field reads 0 as unset, so -threads 0
	// would silently run the default.
	FlagFloor string

	// parse checks one sweep value and returns its canonical spelling,
	// so spellings of one point ("4"/"04") collide in the duplicate check;
	// nil means membership in Values.
	parse func(v string) (string, error)
	// field points at the knob's MatrixOptions field, whose zero value
	// means unpinned.
	field func(o *MatrixOptions) any
	// land applies a pinned value to the point's config, or resolves an
	// unpinned one to the config's default, so the planned options spell
	// the configuration that runs.
	land func(c *memsys.Config, o *MatrixOptions) error
}

var knobs = []Knob{
	{
		Name: "topology", Help: "NoC topology: " + strings.Join(mesh.TopologyKinds(), ", "),
		Desc: "NoC topology for every cell", Values: mesh.TopologyKinds,
		field: func(o *MatrixOptions) any { return &o.Topology },
		land:  func(c *memsys.Config, o *MatrixOptions) error { return pin(&o.Topology, &c.Topology) },
	},
	{
		Name: "router", Help: "router model: " + routerHelp(),
		Desc: "fabric forwarding model for every cell", Values: mesh.RouterKinds,
		field: func(o *MatrixOptions) any { return &o.Router },
		land:  func(c *memsys.Config, o *MatrixOptions) error { return pin(&o.Router, &c.Router) },
	},
	{
		Name: "mesh",
		Help: fmt.Sprintf("tile-grid dimensions WxH, each side at most %d (e.g. %s); tiles, corner MC placement and Bloom banks follow, and -threads must not exceed the tile count",
			mesh.MaxSide, strings.Join(MeshPresets(), ", ")),
		Desc:   "tile-grid dimensions WxH for every cell (tiles, MC corners and Bloom banks follow)",
		Values: MeshPresets, Hint: "WxH, e.g. 4x4, 8x8, 16x16",
		parse: func(v string) (string, error) {
			w, h, err := memsys.ParseMeshDims(v)
			return memsys.FormatMeshDims(w, h), err
		},
		field: func(o *MatrixOptions) any { return &o.Mesh },
		land: func(c *memsys.Config, o *MatrixOptions) error {
			if o.Mesh != "" {
				w, h, err := memsys.ParseMeshDims(o.Mesh)
				if err != nil {
					return err
				}
				*c = c.WithMesh(w, h)
			}
			o.Mesh = memsys.FormatMeshDims(c.Width, c.Height)
			return nil
		},
	},
	{
		Name: "vcs", Help: fmt.Sprintf("vc router: virtual channels per input port (0 = model default; even, 2..%d)", mesh.MaxVCs),
		Desc: "vc router virtual channels per input port (even, >= 2)", Hint: "even int >= 2",
		parse: func(v string) (string, error) {
			n, err := strconv.Atoi(v)
			if err != nil {
				return "", fmt.Errorf("%q is not an integer", v)
			}
			if n < 2 || n%2 != 0 {
				return "", fmt.Errorf("VCs = %d; the dateline split needs an even count >= 2", n)
			}
			return strconv.Itoa(n), nil
		},
		field: func(o *MatrixOptions) any { return &o.VCs },
		land:  func(c *memsys.Config, o *MatrixOptions) error { return pin(&o.VCs, &c.VCs) },
	},
	{
		Name: "vcdepth", Help: fmt.Sprintf("vc router: flit buffer depth per VC (0 = model default; at most %d)", mesh.MaxVCDepth),
		Desc: "vc router flit buffer depth per VC (>= 1)", Hint: "int >= 1",
		parse: normPositiveInt,
		field: func(o *MatrixOptions) any { return &o.VCDepth },
		land:  func(c *memsys.Config, o *MatrixOptions) error { return pin(&o.VCDepth, &c.VCDepth) },
	},
	{
		Name: "threads", Help: "worker threads (= cores used)",
		Desc: "worker threads (= cores used) per cell", Hint: "int >= 1", FlagFloor: "the thread count",
		parse: normPositiveInt,
		field: func(o *MatrixOptions) any { return &o.Threads },
		land: func(_ *memsys.Config, o *MatrixOptions) error {
			switch {
			case o.Threads < 0:
				return fmt.Errorf("core: threads %d must be >= 1 (0 means the default, %d)", o.Threads, DefaultThreads)
			case o.Threads == 0:
				o.Threads = DefaultThreads
			}
			return nil
		},
	},
}

// protocolAxis sweeps one protocol spec per point. It is a sweep axis but
// not a knob: it replaces the matrix's protocol list, so it has no flag,
// lands nowhere and keys the preimage through that list.
var protocolAxis = Knob{
	Name: "protocol", Desc: "one protocol spec per point (replaces the matrix protocol axis)", Hint: "any protocol spec",
	parse: func(v string) (string, error) {
		p, err := ParseProtocol(v)
		if err != nil {
			return "", err
		}
		return p.Spec, nil
	},
	field: func(o *MatrixOptions) any { return &o.Protocols },
}

// Knobs returns the engine-knob table in presentation order, which is
// also the order of the preimage's knob lines.
func Knobs() []Knob { return append([]Knob(nil), knobs...) }

// SweepAxes returns the engine-level sweep axes in presentation order:
// every knob, then the protocol axis.
func SweepAxes() []Knob { return append(Knobs(), protocolAxis) }

// SweepAxisNames lists the engine-level sweep axes in presentation order.
func SweepAxisNames() []string {
	var out []string
	for _, a := range SweepAxes() {
		out = append(out, a.Name)
	}
	return out
}

// MeshPresets are the mesh-dimension values the inventory advertises for
// the mesh axis (the paper's 4x4 plus the 64- and 256-tile scaling
// points). The axis itself accepts any WxH that memsys.ParseMeshDims
// does (up to mesh.MaxSide per side) — these are the catalog entries,
// not a closed vocabulary.
func MeshPresets() []string {
	return []string{"4x4", "8x8", "16x16"}
}

// Default returns the value an unpinned knob plans to, which is also its
// flag's default: an int or a string.
func (k Knob) Default() any {
	cfg, o := memsys.Default(), MatrixOptions{}
	k.land(&cfg, &o) // an unpinned knob always lands
	return k.value(&o)
}

// value returns the knob's field in o.
func (k *Knob) value(o *MatrixOptions) any { return reflect.ValueOf(k.field(o)).Elem().Interface() }

// pinned reports whether o sets the knob explicitly.
func (k *Knob) pinned(o *MatrixOptions) bool { return !reflect.ValueOf(k.field(o)).Elem().IsZero() }

// set pins the knob in o to v, a value parse has already checked.
func (k *Knob) set(o *MatrixOptions, v string) {
	switch p := k.field(o).(type) {
	case *int:
		n, err := strconv.Atoi(v)
		if err != nil {
			panic("core: unchecked sweep value: " + v)
		}
		*p = n
	case *string:
		*p = v
	case *[]string:
		*p = []string{v}
	}
}

// pin lands an options field on its config field: a pinned value
// overrides the config, and an unpinned one takes the config's default.
func pin[T comparable](opt, cfg *T) error {
	var zero T
	if *opt == zero {
		*opt = *cfg
	} else {
		*cfg = *opt
	}
	return nil
}

func normPositiveInt(v string) (string, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return "", fmt.Errorf("%q is not an integer", v)
	}
	if n < 1 {
		return "", fmt.Errorf("%d must be >= 1", n)
	}
	return strconv.Itoa(n), nil
}

// routerHelp renders the router inventory for the -router flag.
func routerHelp() string {
	var parts []string
	for _, kind := range mesh.RouterKinds() {
		desc, err := mesh.RouterDescription(kind)
		if err != nil {
			panic(err) // kinds come from the registry itself
		}
		parts = append(parts, fmt.Sprintf("%s (%s)", kind, desc))
	}
	return strings.Join(parts, ", ")
}
