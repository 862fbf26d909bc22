package xq

import (
	"fmt"
	"math"
	"strings"

	"xcql/internal/temporal"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// builtins is the base function library. Names follow XQuery's fn:
// namespace (unprefixed) plus the paper's helpers (vtFrom/vtTo,
// currentDateTime).
var builtins map[string]Func

func init() {
	builtins = map[string]Func{
		"count": func(_ *Context, args []Sequence) (Sequence, error) {
			if err := arity("count", args, 1); err != nil {
				return nil, err
			}
			return countSeq(len(args[0])), nil
		},
		"sum": func(_ *Context, args []Sequence) (Sequence, error) {
			if err := arity("sum", args, 1); err != nil {
				return nil, err
			}
			total := 0.0
			for _, it := range Atomize(args[0]) {
				n := NumberValue(it)
				if !math.IsNaN(n) {
					total += n
				}
			}
			return Singleton(total), nil
		},
		"avg": func(_ *Context, args []Sequence) (Sequence, error) {
			if err := arity("avg", args, 1); err != nil {
				return nil, err
			}
			if len(args[0]) == 0 {
				return nil, nil
			}
			total, n := 0.0, 0
			for _, it := range Atomize(args[0]) {
				v := NumberValue(it)
				if !math.IsNaN(v) {
					total += v
					n++
				}
			}
			if n == 0 {
				return nil, nil
			}
			return Singleton(total / float64(n)), nil
		},
		"min": extremum(-1),
		"max": extremum(+1),
		"not": func(_ *Context, args []Sequence) (Sequence, error) {
			if err := arity("not", args, 1); err != nil {
				return nil, err
			}
			return boolSeq(!EffectiveBool(args[0])), nil
		},
		"empty": func(_ *Context, args []Sequence) (Sequence, error) {
			if err := arity("empty", args, 1); err != nil {
				return nil, err
			}
			return boolSeq(len(args[0]) == 0), nil
		},
		"exists": func(_ *Context, args []Sequence) (Sequence, error) {
			if err := arity("exists", args, 1); err != nil {
				return nil, err
			}
			return boolSeq(len(args[0]) > 0), nil
		},
		"boolean": func(_ *Context, args []Sequence) (Sequence, error) {
			if err := arity("boolean", args, 1); err != nil {
				return nil, err
			}
			return boolSeq(EffectiveBool(args[0])), nil
		},
		"string": func(ctx *Context, args []Sequence) (Sequence, error) {
			if len(args) == 0 {
				if ctx.item() == nil {
					return Singleton(""), nil
				}
				return Singleton(StringValue(ctx.item())), nil
			}
			if len(args[0]) == 0 {
				return Singleton(""), nil
			}
			return Singleton(StringValue(args[0][0])), nil
		},
		"number": func(_ *Context, args []Sequence) (Sequence, error) {
			if err := arity("number", args, 1); err != nil {
				return nil, err
			}
			if len(args[0]) == 0 {
				return Singleton(math.NaN()), nil
			}
			return Singleton(NumberValue(args[0][0])), nil
		},
		"data": func(_ *Context, args []Sequence) (Sequence, error) {
			if err := arity("data", args, 1); err != nil {
				return nil, err
			}
			return Atomize(args[0]), nil
		},
		"concat": func(_ *Context, args []Sequence) (Sequence, error) {
			var b strings.Builder
			for _, a := range args {
				for _, it := range Atomize(a) {
					b.WriteString(StringValue(it))
				}
			}
			return Singleton(b.String()), nil
		},
		"string-join": func(_ *Context, args []Sequence) (Sequence, error) {
			if err := arity("string-join", args, 2); err != nil {
				return nil, err
			}
			sep := ""
			if len(args[1]) > 0 {
				sep = StringValue(args[1][0])
			}
			return Singleton(strings.Join(Strings(Atomize(args[0])), sep)), nil
		},
		"contains":    strPred("contains", strings.Contains),
		"starts-with": strPred("starts-with", strings.HasPrefix),
		"ends-with":   strPred("ends-with", strings.HasSuffix),
		"substring": func(_ *Context, args []Sequence) (Sequence, error) {
			if len(args) != 2 && len(args) != 3 {
				return nil, fmt.Errorf("xq: substring() wants 2 or 3 arguments")
			}
			s := seqString(args[0])
			start := int(math.Round(seqNumber(args[1]))) - 1
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				return Singleton(""), nil
			}
			end := len(s)
			if len(args) == 3 {
				end = start + int(math.Round(seqNumber(args[2])))
				if end > len(s) {
					end = len(s)
				}
				if end < start {
					end = start
				}
			}
			return Singleton(s[start:end]), nil
		},
		"string-length": func(ctx *Context, args []Sequence) (Sequence, error) {
			if len(args) == 0 {
				return Singleton(float64(len(StringValue(ctx.item())))), nil
			}
			return Singleton(float64(len(seqString(args[0])))), nil
		},
		"upper-case": strMap("upper-case", strings.ToUpper),
		"lower-case": strMap("lower-case", strings.ToLower),
		"normalize-space": strMap("normalize-space", func(s string) string {
			return strings.Join(strings.Fields(s), " ")
		}),
		"name": func(ctx *Context, args []Sequence) (Sequence, error) {
			var it Item
			if len(args) > 0 {
				if len(args[0]) == 0 {
					return Singleton(""), nil
				}
				it = args[0][0]
			} else {
				it = ctx.item()
			}
			switch v := it.(type) {
			case *xmldom.Node:
				return Singleton(v.Name), nil
			case AttrItem:
				return Singleton(v.Name), nil
			default:
				return Singleton(""), nil
			}
		},
		"local-name": func(ctx *Context, args []Sequence) (Sequence, error) {
			nameFn := builtins["name"]
			res, err := nameFn(ctx, args)
			if err != nil || len(res) == 0 {
				return res, err
			}
			n := StringValue(res[0])
			if i := strings.LastIndexByte(n, ':'); i >= 0 {
				n = n[i+1:]
			}
			return Singleton(n), nil
		},
		// root(): nodes carry no parent link (subtrees are shared, see
		// xmldom), so the root is known only for what the evaluation itself
		// navigated: a document node is its own root, a node below the
		// document the enclosing path started from has that document, and
		// any other node — a filler, a constructed element — is the root of
		// its own tree.
		"root": func(ctx *Context, args []Sequence) (Sequence, error) {
			if err := arity("root", args, 1); err != nil {
				return nil, err
			}
			if len(args[0]) == 0 {
				return nil, nil
			}
			n, ok := args[0][0].(*xmldom.Node)
			if !ok {
				return nil, fmt.Errorf("xq: root() wants a node")
			}
			if n.Type != xmldom.DocumentNode && ctx.doc != nil && contains(ctx.doc, n) {
				n = ctx.doc
			}
			return Singleton(n), nil
		},
		"doc":              docFn,
		"document":         docFn,
		"currentDateTime":  currentDateTime,
		"current-dateTime": currentDateTime,
		"abs":              numMap("abs", math.Abs),
		"floor":            numMap("floor", math.Floor),
		"ceiling":          numMap("ceiling", math.Ceil),
		"round":            numMap("round", math.Round),
		"distinct-values": func(ctx *Context, args []Sequence) (Sequence, error) {
			if err := arity("distinct-values", args, 1); err != nil {
				return nil, err
			}
			seen := map[string]bool{}
			var out Sequence
			for _, it := range Atomize(args[0]) {
				k := StringValue(it)
				if !seen[k] {
					seen[k] = true
					out = append(out, it)
				}
			}
			return out, nil
		},
		"position": func(ctx *Context, _ []Sequence) (Sequence, error) {
			return Singleton(float64(ctx.pos)), nil
		},
		"last": func(ctx *Context, _ []Sequence) (Sequence, error) {
			return Singleton(float64(ctx.size)), nil
		},
		"vtFrom": lifespanEnd(false),
		"vtTo":   lifespanEnd(true),
	}
}

// PureBuiltin reports that name is a builtin whose result follows from
// its arguments and the item in focus alone: it reads no document, no
// stream and no store. doc and document fetch by uri, root climbs to a
// document the arguments do not hold, and position and last read where
// the focus sits in a sequence the caller may have cut up; everything a
// runtime registers or a prologue declares is not a builtin at all.
func PureBuiltin(name string) bool {
	switch name {
	case "doc", "document", "root", "position", "last":
		return false
	}
	_, ok := builtins[name]
	return ok
}

func arity(name string, args []Sequence, want int) error {
	if len(args) != want {
		return fmt.Errorf("xq: %s() wants %d argument(s), got %d", name, want, len(args))
	}
	return nil
}

func seqString(s Sequence) string {
	if len(s) == 0 {
		return ""
	}
	return StringValue(s[0])
}

func seqNumber(s Sequence) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return NumberValue(s[0])
}

func strPred(name string, f func(a, b string) bool) Func {
	return func(_ *Context, args []Sequence) (Sequence, error) {
		if err := arity(name, args, 2); err != nil {
			return nil, err
		}
		return boolSeq(f(seqString(args[0]), seqString(args[1]))), nil
	}
}

func strMap(name string, f func(string) string) Func {
	return func(_ *Context, args []Sequence) (Sequence, error) {
		if err := arity(name, args, 1); err != nil {
			return nil, err
		}
		return Singleton(f(seqString(args[0]))), nil
	}
}

func numMap(name string, f func(float64) float64) Func {
	return func(_ *Context, args []Sequence) (Sequence, error) {
		if err := arity(name, args, 1); err != nil {
			return nil, err
		}
		if len(args[0]) == 0 {
			return nil, nil
		}
		return Singleton(f(seqNumber(args[0]))), nil
	}
}

// extremum implements min (sign=-1) and max (sign=+1) over numbers,
// dateTimes or strings, using the same ordering as comparisons.
func extremum(sign int) Func {
	return func(ctx *Context, args []Sequence) (Sequence, error) {
		var all Sequence
		for _, a := range args {
			all = append(all, Atomize(a)...)
		}
		if len(all) == 0 {
			return nil, nil
		}
		best := all[0]
		for _, it := range all[1:] {
			c := compareAtomic(it, best, ctx.Static)
			if (sign > 0 && c > 0) || (sign < 0 && c < 0) {
				best = it
			}
		}
		return Singleton(best), nil
	}
}

// currentDateTime hands out the evaluation instant as a fixed value, so
// whatever is computed from it is valid at that instant only.
func currentDateTime(ctx *Context, _ []Sequence) (Sequence, error) {
	ctx.Static.Horizon.Collapse()
	return Singleton(xtime.At(ctx.Static.Now)), nil
}

func docFn(ctx *Context, args []Sequence) (Sequence, error) {
	if err := arity("doc", args, 1); err != nil {
		return nil, err
	}
	if ctx.Static.Doc == nil {
		return nil, fmt.Errorf("xq: doc(): no document resolver configured")
	}
	uri := seqString(args[0])
	doc, err := ctx.Static.Doc(uri)
	if err != nil {
		return nil, err
	}
	return Singleton(doc), nil
}

// lifespanEnd implements vtFrom()/vtTo(): the start/end of the derived
// lifespan of an element (§2). For dateTime arguments it is the identity.
func lifespanEnd(end bool) Func {
	return func(ctx *Context, args []Sequence) (Sequence, error) {
		name := "vtFrom"
		if end {
			name = "vtTo"
		}
		if err := arity(name, args, 1); err != nil {
			return nil, err
		}
		if len(args[0]) == 0 {
			return nil, nil
		}
		switch v := args[0][0].(type) {
		case *xmldom.Node:
			life := temporal.DerivedLifespan(v, ctx.Static.Now, ctx.Static.Horizon)
			if end {
				return Singleton(life.To), nil
			}
			return Singleton(life.From), nil
		default:
			if dt, ok := DateTimeValue(v); ok {
				return Singleton(dt), nil
			}
			return nil, fmt.Errorf("xq: %s() wants an element or dateTime", name)
		}
	}
}
