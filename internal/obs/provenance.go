package obs

// Canonical provenance-trace vocabulary, shared by every component that
// records into internal/trace and by the consumers that read traces back
// (core.Explain, the /v1/applies endpoints, the Chrome export). Keeping
// the strings here — next to the stage names — guarantees a span in a
// BENCH_*.json, a Perfetto row and an Explain step all mean the same
// thing.

// Track names: the display rows of one apply trace (Perfetto threads).
const (
	// TrackPipeline holds the top-level stage spans (StageGenerate,
	// StageModelUpdate, StagePolicyCheck) and the config_change events
	// that start the causal chain.
	TrackPipeline = "pipeline"
	// TrackEngine holds per-dataflow-node epoch spans (dd).
	TrackEngine = "engine"
	// TrackModel holds EC split/transfer/merge and filter events (apkeep).
	TrackModel = "model"
	// TrackPolicy holds policy re-check events.
	TrackPolicy = "policy"
	// TrackPlan holds the update planner's search span and per-probe
	// events (internal/plan).
	TrackPlan = "plan"
)

// Event kinds, in causal-chain order (the paper's Figure 1: config
// change → rule deltas → EC deltas → verdict flips).
const (
	// EventConfigChange is one changed device in the applied diff
	// (attrs: device, detail).
	EventConfigChange = "config_change"
	// EventECSplit is one predicate split into two ECs
	// (attrs: ec, new_ec, rule, device).
	EventECSplit = "ec_split"
	// EventECTransfer is one EC changing forwarding behaviour on a device
	// (attrs: ec, device, rule, from_ports, to_ports).
	EventECTransfer = "ec_transfer"
	// EventECMerge is two behaviour-identical ECs being coalesced
	// (attrs: ec, into).
	EventECMerge = "ec_merge"
	// EventFilterFlip is an ACL/filter change re-classifying an EC
	// (attrs: ec, device, action).
	EventFilterFlip = "filter_flip"
	// EventPolicyRecheck is one policy re-evaluated against the updated
	// model (attrs: policy, from, to, ecs).
	EventPolicyRecheck = "policy_recheck"
	// EventBDDCollect is one collection of the model's BDD node table at
	// the end of an apply (attrs: nodes_before, nodes_after).
	EventBDDCollect = "bdd_collect"
	// EventProbe is one planner oracle probe: a candidate change tried on
	// a fork at an intermediate state (attrs: state, change, outcome).
	EventProbe = "probe"
)
