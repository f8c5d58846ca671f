package drive

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Grammar is the -drive string ParseSpec reads. A chaos time is "mid" or a
// duration from the drive's start; left out it is halfway through for kill
// and join, three quarters through for drain (after a join at mid landed).
const Grammar = "clients=N,duration=5s[,class=Name][,procs=N][,kill=site@t][,join=1@t][,drain=site@t]"

// Kind is what a timeline event does.
type Kind int

// The chaos events, in the order that breaks a tie between offsets.
const (
	// Kill SIGKILLs the site's process and restarts it to recover from its WAL.
	Kill Kind = iota
	// Join spawns a process that joins as the site and takes client traffic.
	Join
	// Drain drains the site and stops its clients.
	Drain
)

// String is the event's -drive key.
func (k Kind) String() string { return [...]string{"kill", "join", "drain"}[k] }

// knob is the grammar of one chaos key: its event, the lowest site it
// accepts, its default time in quarters of the drive, its refusal.
type knob struct {
	kind     Kind
	min      int
	quarters time.Duration
	bad      string
}

var knobs = map[string]knob{
	"kill":  {Kill, 1, 2, "drive: bad kill site %q (want a spawned peer site >= 1)"},
	"join":  {Join, 1, 2, "drive: bad join %q (only join=1 is supported)"},
	"drain": {Drain, 0, 3, "drive: bad drain site %q"},
}

// Event is one entry of a chaos timeline: Kind happens to Site, At into the drive.
type Event struct {
	At   time.Duration
	Kind Kind
	Site int
}

// Spec is a drive: the parsed -drive string, plus the drive-mode flags beside
// it on the command line (Warmup and below), which the caller fills in.
type Spec struct {
	Clients     int // closed-loop clients per site
	Duration    time.Duration
	Class       string        // the registered class to invoke; empty draws from the base workload's mix
	Procs       int           // OS processes, one site each; 0 runs every site in this process
	Events      []Event       // the chaos timeline, sorted by At; a tie keeps Kind order
	Warmup      time.Duration // before the measured window; in-process drives only
	CheckReplay bool          // end with the serial-replay equivalence check
	Verbose     bool          // also print per-site store counters
	Registers   []string      // class files (wire.ClassRequest JSON) to register
}

// Flags is what the rest of the command line says of the deployment.
type Flags struct {
	BaseWorkload bool // -workload names a built-in workload, not none
	Site         bool // -site/-peers make this process one site of an outside cluster
	Join         bool // -join makes this process a joiner
}

// ParseSpec parses a -drive string (see Grammar) and checks it, in itself and
// against the other flags: what a drive can be refused for before it boots.
func ParseSpec(s string, f Flags) (Spec, error) {
	sp := Spec{Clients: 4, Duration: 5 * time.Second}
	if f.Join {
		return sp, fmt.Errorf("-join cannot be combined with -drive (the drive mode's join=1 knob spawns its own joiner)")
	}
	var chaos [Drain + 1]*Event // like any other key, the last of a kind wins
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return sp, fmt.Errorf("drive: bad option %q (want %s)", part, Grammar)
		}
		var err error
		switch key {
		case "clients":
			if sp.Clients, err = strconv.Atoi(val); err != nil || sp.Clients <= 0 {
				return sp, fmt.Errorf("drive: bad clients %q", val)
			}
		case "duration":
			if sp.Duration, err = time.ParseDuration(val); err != nil || sp.Duration <= 0 {
				return sp, fmt.Errorf("drive: bad duration %q", val)
			}
		case "class":
			sp.Class = val
		case "procs":
			if sp.Procs, err = strconv.Atoi(val); err != nil || sp.Procs < 2 {
				return sp, fmt.Errorf("drive: bad procs %q (want >= 2)", val)
			}
		default:
			k, ok := knobs[key]
			if !ok {
				return sp, fmt.Errorf("drive: unknown option %q", key)
			}
			ev, err := k.parse(val)
			if err != nil {
				return sp, err
			}
			chaos[k.kind] = &ev
		}
	}
	kill, join, drain := chaos[Kill], chaos[Join], chaos[Drain]
	n := sp.Procs
	switch {
	case kill != nil && n == 0:
		return sp, fmt.Errorf("drive: kill=%d needs procs=N (only spawned peer processes can be killed)", kill.Site)
	case (join != nil || drain != nil) && n == 0:
		return sp, fmt.Errorf("drive: join=/drain= need procs=N (elastic chaos runs over the multi-process fabric)")
	case n > 0 && f.Site:
		return sp, fmt.Errorf("-drive procs=N spawns its own peer processes; it cannot be combined with -site")
	case n > 0 && (f.BaseWorkload || sp.Class == ""):
		return sp, fmt.Errorf("drive: procs=N needs -workload none plus -register/class= (merged replay reconstructs commits through registered classes)")
	case kill != nil && kill.Site >= n:
		return sp, fmt.Errorf("drive: kill=%d out of range (procs=%d spawns peer sites 1..%d)", kill.Site, n, n-1)
	case drain != nil && drain.Site >= n:
		return sp, fmt.Errorf("drive: drain=%d out of range (procs=%d runs original sites 0..%d)", drain.Site, n, n-1)
	case drain != nil && kill != nil && drain.Site == kill.Site:
		return sp, fmt.Errorf("drive: drain=%d and kill=%d name the same site", drain.Site, kill.Site)
	}
	if join != nil {
		join.Site = n // the joiner is admitted as the next site
	}
	for _, ev := range chaos {
		if ev == nil {
			continue
		}
		if ev.At == 0 {
			ev.At = sp.Duration * knobs[ev.Kind.String()].quarters / 4
		}
		if ev.At >= sp.Duration {
			return sp, fmt.Errorf("drive: %v time %v is not inside the %v drive", ev.Kind, ev.At, sp.Duration)
		}
		sp.Events = append(sp.Events, *ev)
	}
	sort.SliceStable(sp.Events, func(i, j int) bool { return sp.Events[i].At < sp.Events[j].At })
	return sp, nil
}

// parse parses the knob's "site[@when]" value. At stays zero for a time left
// out or given as "mid": the default, which needs the duration to resolve.
func (k knob) parse(val string) (Event, error) {
	site, at, _ := strings.Cut(val, "@")
	n, err := strconv.Atoi(site)
	if err != nil || n < k.min || k.kind == Join && n != 1 {
		return Event{}, fmt.Errorf(k.bad, val)
	}
	ev := Event{Kind: k.kind, Site: n}
	if at != "" && at != "mid" {
		if ev.At, err = time.ParseDuration(at); err != nil || ev.At <= 0 {
			return ev, fmt.Errorf("drive: bad chaos time %q (want mid or a positive duration)", at)
		}
	}
	return ev, nil
}
