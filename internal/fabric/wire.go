package fabric

import (
	"encoding/json"
	"net/http"

	"steac/internal/envelope"
)

// Wire types for the /v1/fabric/* protocol.  Everything is plain JSON over
// HTTP; errors travel as {"error": "...", "code": "..."} where code is the
// machine-readable name of one of the package sentinels (or "internal"),
// so a client can reconstruct the typed error across the wire.

// SubmitRequest submits a campaign to the coordinator — the same
// kind+spec envelope the local job API uses.
type SubmitRequest struct {
	Kind      string          `json:"kind"`
	Spec      json.RawMessage `json:"spec"`
	ShardSize int             `json:"shard_size,omitempty"`
	// Tenant is the submitting tenant's id, recorded on the campaign for
	// attribution (the serve layer enforces visibility; the fabric
	// protocol itself is intra-cluster and unauthenticated).
	Tenant string `json:"tenant,omitempty"`
}

// CampaignInfo describes a campaign the coordinator tracks: the full plan
// geometry plus its lifecycle state ("running" or "done").
type CampaignInfo struct {
	Fingerprint string          `json:"fingerprint"`
	Kind        string          `json:"kind"`
	Spec        json.RawMessage `json:"spec"`
	Units       int             `json:"units"`
	ShardSize   int             `json:"shard_size"`
	Shards      int             `json:"shards"`
	State       string          `json:"state"`
	// Tenant is the first submitter's tenant id (empty for campaigns
	// submitted before tenancy or recovered from bare checkpoints).
	Tenant string `json:"tenant,omitempty"`
}

// LeaseRequest asks for up to Max shards of Campaign on behalf of Node.
type LeaseRequest struct {
	Node     string `json:"node"`
	Campaign string `json:"campaign"`
	Max      int    `json:"max,omitempty"`
}

// WireLease is one leased shard: the index plus the unit range and content
// key, so a node can validate its local plan against the coordinator's.
type WireLease struct {
	Shard int    `json:"shard"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
	Key   string `json:"key"`
}

// LeaseResponse carries the granted leases and the TTL the node must
// heartbeat within.  Done means the campaign has no work left at all;
// empty Leases with Done=false means everything pending is currently
// leased elsewhere — poll again.
type LeaseResponse struct {
	Leases []WireLease `json:"leases"`
	TTLMS  int64       `json:"ttl_ms"`
	Done   bool        `json:"done"`
}

// HeartbeatRequest renews Node's leases on Shards of Campaign.
type HeartbeatRequest struct {
	Node     string `json:"node"`
	Campaign string `json:"campaign"`
	Shards   []int  `json:"shards"`
}

// HeartbeatResponse splits the heartbeat into renewed and lost leases; the
// node must abandon lost shards (another node owns them now).
type HeartbeatResponse struct {
	Renewed []int `json:"renewed"`
	Lost    []int `json:"lost"`
}

// CompleteRequest reports one journaled shard.  The node must have fsync'd
// the outcome into its side journal before sending this.
type CompleteRequest struct {
	Node     string `json:"node"`
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
}

// CompleteResponse acknowledges a completion.  Already means some node
// reported the shard first; Done means this completion finished the
// campaign.
type CompleteResponse struct {
	Already bool `json:"already"`
	Done    bool `json:"done"`
}

// Progress is the fabric-wide progress view of one campaign: shard and
// unit totals, per-node lease/steal ledgers, and the coordinator's ETA.
type Progress struct {
	Fingerprint    string         `json:"fingerprint"`
	Kind           string         `json:"kind"`
	State          string         `json:"state"`
	ShardsTotal    int            `json:"shards_total"`
	ShardsComplete int            `json:"shards_complete"`
	ShardsLeased   int            `json:"shards_leased"`
	ShardsPending  int            `json:"shards_pending"`
	UnitsTotal     int            `json:"units_total"`
	UnitsDone      int            `json:"units_done"`
	ElapsedMS      int64          `json:"elapsed_ms"`
	EtaMS          int64          `json:"eta_ms,omitempty"`
	Nodes          []NodeProgress `json:"nodes"`
}

// NodeProgress is one node's ledger within a campaign.
type NodeProgress struct {
	Node      string `json:"node"`
	Leased    int    `json:"leased"`
	Completed int    `json:"completed"`
	Stolen    int    `json:"stolen"`
	IdleMS    int64  `json:"idle_ms"`
}

// protocol is the fabric surface's error table — sentinel → wire code →
// status — and with it the writer, the lenient bounded body decoder and
// the client call (package envelope).  Unmatched errors answer 500
// "internal", which carries no sentinel, so nodes retry them.
var protocol = &envelope.Surface{
	Name: "fabric",
	Codes: []envelope.Code{
		{Name: "unknown_campaign", Status: http.StatusNotFound, Err: ErrUnknownCampaign},
		{Name: "unknown_shard", Status: http.StatusBadRequest, Err: ErrUnknownShard},
		{Name: "not_done", Status: http.StatusConflict, Err: ErrNotDone},
		{Name: "spec_mismatch", Status: http.StatusConflict, Err: ErrSpecMismatch},
		{Name: "bad_request", Status: http.StatusBadRequest, Err: ErrBadRequest},
	},
}
