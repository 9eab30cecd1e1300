// Command realconfig verifies network configurations incrementally.
//
// Full verification of a snapshot:
//
//	realconfig verify -net <dir> [-policies <file>] [-fib]
//
// Incremental verification of a change plan (each step is a snapshot
// directory; steps are verified in order, reusing prior state):
//
//	realconfig check -net <base-dir> [-policies <file>] <step-dir>...
//
// check also reconstructs provenance: -explain <policy> prints the
// causal chain (config change -> rules -> ECs) behind the policy's
// latest verdict flip, and -trace <file> exports every step's trace as
// Chrome trace-event JSON (loadable in Perfetto).
//
// Tracing a concrete packet and diffing snapshots:
//
//	realconfig trace -net <dir> -from <device> -to <ip> [-proto tcp -port 22]
//	realconfig diff <old-dir> <new-dir>
//
// Planning a safe rollout of a change batch (a JSON file with a
// "changes" array, see cmd/rcgen -batch): search for an ordering whose
// every intermediate state satisfies the policies, grouped into
// parallelizable waves, or print a minimal counterexample:
//
//	realconfig plan -net <dir> -policies <file> -changes <batch.json>
//
// A snapshot directory holds one "<host>.cfg" per device and a
// "topology.txt" with "link devA intfA devB intfB" lines; see cmd/rcgen
// to generate synthetic snapshots.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"realconfig/internal/apkeep"
	"realconfig/internal/core"
	"realconfig/internal/dataplane"
	"realconfig/internal/netcfg"
	"realconfig/internal/plan"
	"realconfig/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "realconfig:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: realconfig verify|check [flags]")
	}
	switch args[0] {
	case "verify":
		return cmdVerify(args[1:])
	case "check":
		return cmdCheck(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "diff":
		return cmdDiff(args[1:])
	case "plan":
		return cmdPlan(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want verify, check, trace, diff or plan)", args[0])
	}
}

// cmdTrace follows one concrete packet through the verified data plane.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	netDir := fs.String("net", "", "snapshot directory (required)")
	src := fs.String("from", "", "injection device (required)")
	dstStr := fs.String("to", "", "destination IPv4 address (required)")
	srcStr := fs.String("src", "0.0.0.0", "source IPv4 address")
	protoStr := fs.String("proto", "ip", "protocol: ip, tcp, udp, icmp")
	port := fs.Int("port", 0, "destination port")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *netDir == "" || *src == "" || *dstStr == "" {
		return fmt.Errorf("-net, -from and -to are required")
	}
	net, err := core.LoadNetworkDir(*netDir)
	if err != nil {
		return err
	}
	if net.Devices[*src] == nil {
		return fmt.Errorf("no device %q", *src)
	}
	pkt, err := core.ParsePacket(*dstStr, *srcStr, *protoStr, *port)
	if err != nil {
		return err
	}
	v := core.New(core.Options{})
	if _, err := v.Load(net); err != nil {
		return err
	}
	fmt.Print(v.Trace(*src, pkt))
	return nil
}

// cmdDiff prints the configuration-line diff between two snapshots.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: realconfig diff <old-dir> <new-dir>")
	}
	oldNet, err := core.LoadNetworkDir(fs.Arg(0))
	if err != nil {
		return err
	}
	newNet, err := core.LoadNetworkDir(fs.Arg(1))
	if err != nil {
		return err
	}
	d := netcfg.DiffNetworks(oldNet, newNet)
	if d.Empty() {
		fmt.Println("no changes")
		return nil
	}
	devs := make([]string, 0, len(d.Devices))
	for name := range d.Devices {
		devs = append(devs, name)
	}
	sort.Strings(devs)
	for _, name := range devs {
		fmt.Printf("%s:\n", name)
		for _, ch := range d.Devices[name] {
			fmt.Printf("  %s\n", ch)
		}
	}
	for _, lc := range d.Links {
		fmt.Printf("topology: %s %s\n", lc.Op, lc.Link)
	}
	fmt.Printf("%d line(s) changed\n", d.LineCount())
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	netDir := fs.String("net", "", "snapshot directory (required)")
	polFile := fs.String("policies", "", "policy specification file")
	showFIB := fs.Bool("fib", false, "print the computed FIB")
	deleteFirst := fs.Bool("delete-first", false, "apply deletions before insertions in model updates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *netDir == "" {
		return fmt.Errorf("-net is required")
	}
	net, err := core.LoadNetworkDir(*netDir)
	if err != nil {
		return err
	}
	opts := options(*deleteFirst)
	v := core.New(opts)
	rep, err := v.Load(net)
	if err != nil {
		return err
	}
	if err := addPolicies(v, *polFile); err != nil {
		return err
	}
	printReport(rep, fmt.Sprintf("verified %s", *netDir))
	printVerdicts(v)
	if *showFIB {
		printFIB(v)
	}
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	netDir := fs.String("net", "", "base snapshot directory (required)")
	polFile := fs.String("policies", "", "policy specification file")
	deleteFirst := fs.Bool("delete-first", false, "apply deletions before insertions in model updates")
	tracePath := fs.String("trace", "", "export every step's provenance trace as Chrome trace-event JSON to this file")
	explain := fs.String("explain", "", "after all steps, explain this policy's latest verdict flip (change -> rules -> ECs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *netDir == "" {
		return fmt.Errorf("-net is required")
	}
	steps := fs.Args()
	if len(steps) == 0 {
		return fmt.Errorf("no change steps given")
	}
	base, err := core.LoadNetworkDir(*netDir)
	if err != nil {
		return err
	}
	opts := options(*deleteFirst)
	if *tracePath != "" || *explain != "" {
		opts.TraceApplies = len(steps) + 1 // retain the load and every step
	}
	v := core.New(opts)
	rep, err := v.Load(base)
	if err != nil {
		return err
	}
	if err := addPolicies(v, *polFile); err != nil {
		return err
	}
	printReport(rep, fmt.Sprintf("base %s", *netDir))
	for _, step := range steps {
		next, err := core.LoadNetworkDir(step)
		if err != nil {
			return err
		}
		rep, err := v.SetNetwork(next)
		if err != nil {
			return err
		}
		printReport(rep, fmt.Sprintf("step %s", step))
		for _, name := range rep.Violations() {
			fmt.Printf("  VIOLATED: %s\n", name)
		}
		for _, name := range rep.Repaired() {
			fmt.Printf("  repaired: %s\n", name)
		}
	}
	printVerdicts(v)
	if *explain != "" {
		ex, err := v.Explain(*explain)
		if err != nil {
			return err
		}
		fmt.Print(ex)
	}
	if *tracePath != "" {
		if err := writeChromeTrace(v, *tracePath); err != nil {
			return err
		}
		fmt.Printf("wrote trace %s\n", *tracePath)
	}
	return nil
}

// cmdPlan searches for a violation-free ordering of a change batch.
func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	netDir := fs.String("net", "", "snapshot directory (required)")
	polFile := fs.String("policies", "", "policy specification file")
	batchFile := fs.String("changes", "", "JSON change-batch file (required)")
	maxProbes := fs.Int("max-probes", 0, "probe budget (0 = default)")
	deleteFirst := fs.Bool("delete-first", false, "apply deletions before insertions in model updates")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *netDir == "" || *batchFile == "" {
		return fmt.Errorf("-net and -changes are required")
	}
	net, err := core.LoadNetworkDir(*netDir)
	if err != nil {
		return err
	}
	batch, err := loadBatch(*batchFile)
	if err != nil {
		return err
	}
	opts := options(*deleteFirst)
	v := core.New(opts)
	if _, err := v.Load(net); err != nil {
		return err
	}
	if err := addPolicies(v, *polFile); err != nil {
		return err
	}
	res, err := plan.Search(v, batch, plan.Options{MaxProbes: *maxProbes})
	if err != nil {
		return err
	}
	printPlanStats(res.Stats)
	if ce := res.Counterexample; ce != nil {
		fmt.Print(ce)
		return fmt.Errorf("no safe ordering for %s", *batchFile)
	}
	for wi, wave := range res.Plan.Waves {
		fmt.Printf("wave %d (%d change(s), may roll out concurrently):\n", wi+1, len(wave))
		for _, st := range wave {
			fmt.Printf("  [%d] %s\n", st.Index, st.Change)
		}
	}
	fmt.Print(wavesLine(res.Plan))
	return nil
}

// wavesLine renders the machine-diffable one-line wave summary shared
// with the daemon smoke test: "waves: [1] [0 2 3]".
func wavesLine(p *plan.Plan) string {
	var b []byte
	b = append(b, "waves:"...)
	for _, wave := range p.Waves {
		b = append(b, ' ', '[')
		for i, st := range wave {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, fmt.Sprintf("%d", st.Index)...)
		}
		b = append(b, ']')
	}
	b = append(b, '\n')
	return string(b)
}

func printPlanStats(st plan.Stats) {
	fmt.Printf("search: %d probes, %d memo hits, %d fork rebuilds, %s\n",
		st.Probes, st.MemoHits, st.Rebuilds, st.Elapsed.Round(time.Microsecond))
}

// loadBatch reads a {"changes":[...]} JSON batch file.
func loadBatch(path string) ([]netcfg.Change, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var req struct {
		Changes []json.RawMessage `json:"changes"`
	}
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("batch %s: %w", path, err)
	}
	if len(req.Changes) == 0 {
		return nil, fmt.Errorf("batch %s has no changes", path)
	}
	return netcfg.DecodeChanges(req.Changes)
}

// writeChromeTrace exports every retained apply trace, oldest first, as
// one Chrome trace-event JSON file (loadable in Perfetto).
func writeChromeTrace(v *core.Verifier, path string) error {
	rec := v.Recorder()
	var applies []*trace.Apply
	sums := rec.Applies()
	for i := len(sums) - 1; i >= 0; i-- {
		if a := rec.Get(sums[i].ID); a != nil {
			applies = append(applies, a)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, applies...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func options(deleteFirst bool) core.Options {
	var opts core.Options
	if deleteFirst {
		opts.Order = apkeep.DeleteFirst
	}
	return opts
}

func addPolicies(v *core.Verifier, file string) error {
	if file == "" {
		return nil
	}
	text, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	ps, err := core.ParsePolicies(string(text))
	if err != nil {
		return err
	}
	for _, p := range ps {
		v.AddPolicy(p)
	}
	return nil
}

func printReport(rep *core.Report, label string) {
	fmt.Printf("%s: %d config lines changed, rules +%d/-%d, filters %d, ECs %d, pairs %d, policies checked %d\n",
		label, rep.Diff().LineCount(), rep.RulesInserted, rep.RulesDeleted, rep.FilterChanges,
		rep.Model.AffectedECs(), len(rep.Check.AffectedPairs), rep.Check.PoliciesChecked)
	fmt.Printf("  timing: %s\n", rep.Timing)
}

func printVerdicts(v *core.Verifier) {
	verdicts := v.Verdicts()
	if len(verdicts) == 0 {
		return
	}
	names := make([]string, 0, len(verdicts))
	for name := range verdicts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("policies:")
	for _, name := range names {
		status := "SATISFIED"
		if !verdicts[name] {
			status = "VIOLATED"
		}
		fmt.Printf("  %-40s %s\n", name, status)
	}
}

func printFIB(v *core.Verifier) {
	var rules []dataplane.Rule
	for r, d := range v.FIB() {
		if d > 0 {
			rules = append(rules, r)
		}
	}
	sort.Slice(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Prefix.Addr != b.Prefix.Addr {
			return a.Prefix.Addr < b.Prefix.Addr
		}
		return a.Prefix.Len < b.Prefix.Len
	})
	fmt.Printf("fib (%d rules):\n", len(rules))
	for _, r := range rules {
		fmt.Println(" ", r)
	}
}
