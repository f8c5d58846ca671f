package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/homeo/wire"
)

// Pool is a topology-aware client for an elastic multi-process cluster:
// it round-robins submissions across every active site, refreshes its
// site list whenever a server's stats report a newer membership epoch
// (joined sites start receiving traffic, drained sites stop), and fails
// a refused submission over to a surviving site instead of surfacing the
// refusal — a site_gone (410), draining (503), or transport error
// triggers a topology refresh and a retry elsewhere. Site-pinned
// requests (TxnRequest.Site set) go to the process that owns the site and
// are never failed over: the pin is the caller's placement decision.
type Pool struct {
	opts Options

	mu      sync.Mutex
	clients map[string]*Client // by base URL, created lazily, kept across refreshes
	bases   []string           // active site base URLs, in site order
	owners  []string           // every site's base URL by index, from the adopted topology
	epoch   int64

	next atomic.Int64 // round-robin cursor
}

// NewPool returns a pool seeded with the given site base URLs (any
// subset of the cluster reachable at construction; the first refresh
// learns the rest). The same Options apply to every per-site client.
func NewPool(bases []string, opts Options) *Pool {
	p := &Pool{opts: opts, clients: map[string]*Client{}}
	for _, b := range bases {
		b = strings.TrimSuffix(b, "/")
		if b != "" {
			p.bases = append(p.bases, b)
		}
	}
	return p
}

// client returns (building if needed) the per-base client.
func (p *Pool) client(base string) *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	cl := p.clients[base]
	if cl == nil {
		cl = New(base, p.opts)
		p.clients[base] = cl
	}
	return cl
}

// Bases returns the current active site base URLs.
func (p *Pool) Bases() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.bases...)
}

// Epoch returns the newest membership epoch the pool has observed.
func (p *Pool) Epoch() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// pick returns the next base in round-robin order ("" when the pool has
// no live bases).
func (p *Pool) pick() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bases) == 0 {
		return ""
	}
	return p.bases[int(p.next.Add(1)-1)%len(p.bases)]
}

// adopt installs a topology observation: the first one, or one whose
// epoch is newer than what the pool knows, replaces the site owners, and
// the active site list is rebuilt from the reported addresses and
// statuses unless none of them is an active address.
func (p *Pool) adopt(epoch int64, status, addrs []string) {
	if len(addrs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.owners != nil && epoch <= p.epoch {
		return
	}
	var bases []string
	owners := make([]string, len(addrs))
	for k, a := range addrs {
		owners[k] = strings.TrimSuffix(a, "/")
		if a == "" || k >= len(status) || status[k] != "active" {
			continue
		}
		bases = append(bases, owners[k])
	}
	p.epoch, p.owners = epoch, owners
	if len(bases) > 0 {
		p.bases = bases
	}
}

// owner returns the base URL of the process that owns the site, "" when
// the adopted topology names none; known is false when the pool has
// adopted no topology that has the site.
func (p *Pool) owner(site int) (base string, known bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if site < 0 || site >= len(p.owners) {
		return "", false
	}
	return p.owners[site], true
}

// drop removes a base from the active list until a refresh restores it
// (used after a transport failure, when no server could tell us the new
// topology).
func (p *Pool) drop(base string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, b := range p.bases {
		if b == base {
			p.bases = append(p.bases[:i], p.bases[i+1:]...)
			return
		}
	}
}

// Refresh polls the pool's sites for their membership view and adopts
// the newest epoch found. Called automatically after a failover; callers
// can also invoke it on a timer. Returns the first error only if every
// site was unreachable.
func (p *Pool) Refresh(ctx context.Context) error {
	bases := p.Bases()
	if len(bases) == 0 {
		p.mu.Lock()
		for b := range p.clients {
			bases = append(bases, b)
		}
		p.mu.Unlock()
	}
	var firstErr error
	ok := false
	for _, b := range bases {
		st, err := p.client(b).Stats(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok = true
		p.adopt(st.TopologyEpoch, st.SiteStatus, st.SiteAddrs)
	}
	if !ok {
		return fmt.Errorf("client: topology refresh failed everywhere: %w", firstErr)
	}
	return nil
}

// failover classifies an error (or in-band result error) as a cue to
// retry the submission at another site: the addressed site is gone or
// draining, or the transport could not reach it.
func failover(err error, res *wire.TxnResult) bool {
	if res != nil && res.Error != nil && res.Error.Code == "site_gone" {
		return true
	}
	if err == nil {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code == "site_gone" || ae.Code == "draining" ||
			ae.Status == http.StatusGone || ae.Status == http.StatusServiceUnavailable
	}
	return true // transport error: the site may be dead
}

// Submit invokes one transaction against the next active site, failing
// over to survivors on site_gone/draining refusals and transport errors
// (refreshing the topology in between). A site-pinned request goes to one
// submission with no failover, at the site's owner: every other process
// of a multi-process cluster refuses it. A site the pool has no topology
// for yet is learned by one refresh; a topology that names no owner (an
// in-process cluster, whose one process serves every site) leaves the
// request to the next base.
func (p *Pool) Submit(ctx context.Context, req wire.TxnRequest) (wire.TxnResult, error) {
	if req.Site != nil {
		base, known := p.owner(*req.Site)
		if !known {
			_ = p.Refresh(ctx) // an unreachable cluster fails the submission below
			base, _ = p.owner(*req.Site)
		}
		if base == "" {
			base = p.pick()
		}
		if base == "" {
			return wire.TxnResult{}, fmt.Errorf("client: pool has no live sites")
		}
		return p.client(base).Submit(ctx, req)
	}
	var (
		lastRes wire.TxnResult
		lastErr error
	)
	tries := len(p.Bases()) + 1
	if tries < 2 {
		tries = 2
	}
	for attempt := 0; attempt < tries; attempt++ {
		if err := ctx.Err(); err != nil {
			return lastRes, err
		}
		base := p.pick()
		if base == "" {
			return lastRes, fmt.Errorf("client: pool has no live sites (last error: %v)", lastErr)
		}
		res, err := p.client(base).Submit(ctx, req)
		if !failover(err, &res) {
			return res, err
		}
		lastRes, lastErr = res, err
		// The site refused or vanished: drop it provisionally, learn the
		// new membership from the survivors, and go around.
		p.drop(base)
		if rerr := p.Refresh(ctx); rerr != nil && lastErr == nil {
			lastErr = rerr
		}
	}
	if lastErr == nil {
		return lastRes, nil
	}
	return lastRes, fmt.Errorf("client: submission failed at every site: %w", lastErr)
}

// Stats fetches a snapshot from the first reachable active site and
// adopts any newer topology it reports.
func (p *Pool) Stats(ctx context.Context) (wire.Stats, error) {
	var firstErr error
	for _, b := range p.Bases() {
		st, err := p.client(b).Stats(ctx)
		if err == nil {
			p.adopt(st.TopologyEpoch, st.SiteStatus, st.SiteAddrs)
			return st, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("client: pool has no live sites")
	}
	return wire.Stats{}, firstErr
}
