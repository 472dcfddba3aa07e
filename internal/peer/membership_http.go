package peer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// Membership-protocol wire details.
const (
	// MembershipPathPrefix is the root of the membership endpoints.
	MembershipPathPrefix = "/internal/v1/membership/"
	// JoinPath is where a (re)starting instance announces itself to a
	// seed and receives the seed's full view back.
	JoinPath = MembershipPathPrefix + "join"
	// HeartbeatPath carries the periodic gossip exchange: the sender's
	// view in the request, the receiver's view in the response.
	HeartbeatPath = MembershipPathPrefix + "heartbeat"
	// LeavePath announces a graceful departure.
	LeavePath = MembershipPathPrefix + "leave"
)

// maxMembershipMembers bounds one gossiped view; maxMembershipBody the
// raw message size. Far above any sane cluster, low enough that a
// malicious peer cannot balloon the member map.
const (
	maxMembershipMembers = 1024
	maxMembershipBody    = 1 << 20
)

// MembershipMsg is the join/heartbeat/leave wire message: the sender's
// own record plus (for join and heartbeat) its full gossiped view.
type MembershipMsg struct {
	From    MemberInfo   `json:"from"`
	Members []MemberInfo `json:"members,omitempty"`
}

// DecodeMembershipMsg parses and validates one wire message from
// untrusted peer input: bounded size, a well-formed sender URL, bounded
// member count, and well-formed member URLs throughout. Anything else
// is an error — malformed gossip must never reach the member list.
func DecodeMembershipMsg(r io.Reader) (MembershipMsg, error) {
	var msg MembershipMsg
	dec := json.NewDecoder(io.LimitReader(r, maxMembershipBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&msg); err != nil {
		return MembershipMsg{}, fmt.Errorf("peer: malformed membership message: %w", err)
	}
	if err := validMemberURL(msg.From.URL); err != nil {
		return MembershipMsg{}, fmt.Errorf("peer: membership sender: %w", err)
	}
	if len(msg.Members) > maxMembershipMembers {
		return MembershipMsg{}, fmt.Errorf("peer: membership view lists %d members (max %d)",
			len(msg.Members), maxMembershipMembers)
	}
	for _, mi := range msg.Members {
		if err := validMemberURL(mi.URL); err != nil {
			return MembershipMsg{}, fmt.Errorf("peer: membership view: %w", err)
		}
	}
	return msg, nil
}

// validMemberURL requires a scheme://host base URL, the same shape
// NewCluster demands of configured members.
func validMemberURL(s string) error {
	if s == "" {
		return fmt.Errorf("empty member URL")
	}
	u, err := url.Parse(s)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("member %q is not a base URL (want scheme://host:port)", s)
	}
	return nil
}

// handleMembership is the shared join/heartbeat/leave endpoint body:
// decode, merge (the sender's own record rides along with its view),
// refresh the ring, and answer with the local view so every exchange
// converges both sides.
func (c *Cluster) handleMembership(w http.ResponseWriter, r *http.Request, kind string) {
	msg, err := DecodeMembershipMsg(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	from := msg.From
	if kind == "leave" {
		from.State = StateLeft
	}
	changed := c.members.Merge(append(msg.Members, from))
	if from.State.inRing() {
		c.members.ObserveAlive(from.URL) // the sender just proved it is up
	}
	if changed {
		c.log.Info("membership changed", "via", kind, "from", from.URL,
			"members", len(c.members.Live()))
	}
	c.refreshRing()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(MembershipMsg{
		From:    c.members.SelfInfo(),
		Members: c.members.Snapshot(),
	})
}

// HandleJoin serves POST /internal/v1/membership/join.
func (c *Cluster) HandleJoin(w http.ResponseWriter, r *http.Request) {
	c.handleMembership(w, r, "join")
}

// HandleHeartbeat serves POST /internal/v1/membership/heartbeat.
func (c *Cluster) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	c.handleMembership(w, r, "heartbeat")
}

// HandleLeave serves POST /internal/v1/membership/leave: the sender's
// record is taken as a graceful departure regardless of the state it
// claims.
func (c *Cluster) HandleLeave(w http.ResponseWriter, r *http.Request) {
	c.handleMembership(w, r, "leave")
}

// exchange POSTs this instance's view to target's membership endpoint
// and merges the view that comes back. It reports whether the ring
// membership changed on either leg.
func (c *Cluster) exchange(ctx context.Context, target, path string) (changed bool, err error) {
	body, err := json.Marshal(MembershipMsg{
		From:    c.members.SelfInfo(),
		Members: c.members.Snapshot(),
	})
	if err != nil {
		return false, err
	}
	var reply MembershipMsg
	_, err = c.roundTrip(ctx, nil, http.MethodPost, target, path, body, jsonHeader(), maxMembershipBody,
		func(_ http.Header, raw []byte) (err error) {
			reply, err = DecodeMembershipMsg(bytes.NewReader(raw))
			return err
		})
	if err != nil {
		return false, err
	}
	changed = c.members.Merge(append(reply.Members, reply.From))
	if reply.From.URL == target && reply.From.State.inRing() {
		c.members.ObserveAlive(target)
	}
	return changed, nil
}

// announceLeave best-effort POSTs the departure to up to fanout live
// peers so the verdict spreads without waiting for timeouts.
func (c *Cluster) announceLeave(ctx context.Context, view []MemberInfo) {
	body, err := json.Marshal(MembershipMsg{From: c.members.SelfInfo(), Members: view})
	if err != nil {
		return
	}
	sent := 0
	for _, m := range view {
		if m.URL == c.self || !m.State.inRing() {
			continue
		}
		if sent >= c.cfg.GossipFanout {
			break
		}
		if _, err := c.roundTrip(ctx, nil, http.MethodPost, m.URL, LeavePath,
			body, jsonHeader(), maxMembershipBody, nil); err != nil {
			c.log.Debug("leave announcement failed", "peer", m.URL, "err", err)
			continue
		}
		sent++
	}
}
