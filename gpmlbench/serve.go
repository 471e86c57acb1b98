package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"gpml"
	"gpml/internal/gql"
	"gpml/internal/graph"
	"gpml/internal/normalize"
	"gpml/internal/server"
)

// Served read traffic: the request mix both HTTP workloads send, the
// closed-loop client, and the answer checks.

// template is one parameterized point-read statement.
type template struct {
	name  string
	text  string // uses $name
	forum bool   // $name is a forum title, else a person's firstName
	limit int    // request row budget; 0 = none
}

// templates is the point-read mix: small answers, so the server, the
// front end, the plan cache and the label-scan seed carry the time.
var templates = []template{
	{name: "knows1", text: `MATCH (a:Person WHERE a.firstName = $name)-[:knows]-(b:Person)`},
	{name: "likes_creator", text: `MATCH (a:Person WHERE a.firstName = $name)-[:likes]->(m:Post)-[:hasCreator]->(c:Person)`},
	{name: "moderator_posts", text: `MATCH (f:Forum WHERE f.title = $name)-[:hasModerator]->(p:Person), (f)-[:containerOf]->(m:Post)`, forum: true},
	{name: "knows2", text: `MATCH (a:Person WHERE a.firstName = $name)-[:knows]-{2}(b:Person)`, limit: 20},
}

// layouts spells one statement three ways that normalize.QueryKey
// collapses to a single key: as written; lower-case keywords with line
// breaks; and with block and line comments.
func layouts(name, text string) []string {
	l1 := strings.Replace(text, "MATCH ", "match\n  ", 1)
	l1 = strings.ReplaceAll(l1, " WHERE ", "\n    where ")
	l1 = strings.ReplaceAll(l1, ", (", ",\n  (")
	l2 := "/* " + name + " */ " + strings.ReplaceAll(text, ")-", ")  -") + " // point read"
	return []string{text, l1, l2}
}

// adhocShare is the fraction of requests sent as ad-hoc statements with
// the parameter inlined as a literal: each is a distinct plan-cache key.
const adhocShare = 0.10

// Parameter skew: Zipf(s, v) over a seeded permutation of the entities,
// so hot keys are random persons rather than the generator's degree
// hubs, and no single key takes more than ~1-2% of requests.
const (
	zipfS = 1.1
	zipfV = 20
)

// request is one generated read.
type request struct {
	tmpl  int
	adhoc bool
	param string // entity the request asks about
	src   string
	body  []byte
}

// reqGen draws requests for one connection.
type reqGen struct {
	rng            *rand.Rand
	persons, forum []int
	pz, fz         *rand.Zipf
	texts          [][]string // per template, its layouts
	adhoc          float64    // share of ad-hoc requests
	turn           int        // templates are sent round-robin, so every run has the exact mix
}

func newReqGen(seed int64, nPersons, nForums int) *reqGen {
	rng := rand.New(rand.NewSource(seed))
	g := &reqGen{rng: rng, persons: rng.Perm(nPersons), forum: rng.Perm(nForums), adhoc: adhocShare}
	g.turn = rng.Intn(len(templates))
	g.pz = rand.NewZipf(rng, zipfS, zipfV, uint64(nPersons-1))
	g.fz = rand.NewZipf(rng, zipfS, zipfV, uint64(nForums-1))
	for _, t := range templates {
		g.texts = append(g.texts, layouts(t.name, t.text))
	}
	return g
}

func (g *reqGen) next() request {
	r := request{tmpl: g.turn % len(templates)}
	g.turn++
	t := templates[r.tmpl]
	r.adhoc = g.rng.Float64() < g.adhoc
	var idx int
	switch {
	case r.adhoc && t.forum: // ad-hoc keys are uniform: a key space far past the cache
		idx = g.rng.Intn(len(g.forum))
	case r.adhoc:
		idx = g.rng.Intn(len(g.persons))
	case t.forum:
		idx = g.forum[g.fz.Uint64()]
	default:
		idx = g.persons[g.pz.Uint64()]
	}
	if t.forum {
		r.param = fmt.Sprintf("forum%d", idx)
	} else {
		r.param = fmt.Sprintf("p%d", idx)
	}
	body := struct {
		Query  string            `json:"query"`
		Params map[string]string `json:"params,omitempty"`
		Limit  int               `json:"limit,omitempty"`
	}{Limit: t.limit}
	if r.adhoc {
		r.src = strings.Replace(t.text, "$name", "'"+r.param+"'", 1)
	} else {
		r.src = g.texts[r.tmpl][g.rng.Intn(len(g.texts[r.tmpl]))]
		body.Params = map[string]string{"name": r.param}
	}
	body.Query = r.src
	r.body, _ = json.Marshal(body) // strings and an int cannot fail to encode
	return r
}

// options are the evaluation options gpmld applies to this request.
func (r request) options() []gpml.Option {
	var opts []gpml.Option
	if l := templates[r.tmpl].limit; l > 0 {
		opts = append(opts, gpml.WithLimit(l))
	}
	if !r.adhoc {
		opts = append(opts, gpml.WithParams(map[string]gpml.Value{"name": gpml.Str(r.param)}))
	}
	return opts
}

// checkLayouts fails if any template's layouts do not share one key.
func checkLayouts() error {
	for _, t := range templates {
		var first string
		for i, src := range layouts(t.name, t.text) {
			k, err := normalize.QueryKey(src)
			if err != nil {
				return fmt.Errorf("template %s layout %d: %w", t.name, i, err)
			}
			if i == 0 {
				first = k
			} else if k != first {
				return fmt.Errorf("template %s layout %d normalizes to a different key", t.name, i)
			}
		}
	}
	return nil
}

// served is gpmld's query service on a loopback listener in this process.
type served struct {
	srv     *server.Server
	hs      *http.Server
	url     string
	done    chan error
	once    sync.Once
	stopErr error
}

// startServer builds the service with gpmld's defaults (cache 256,
// max-concurrent 8) and serves it on 127.0.0.1.
func startServer(st graph.Store) (*served, error) {
	cat := gql.NewCatalog()
	if err := cat.Register("main", st); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Catalog: cat, CacheSize: 256, MaxConcurrent: 8})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for Serve to return. Safe to
// call more than once.
func (s *served) stop() error {
	s.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.stopErr = s.hs.Shutdown(ctx)
		if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && s.stopErr == nil {
			s.stopErr = serr
		}
	})
	return s.stopErr
}

// reply is what the client saw of one response.
type reply struct {
	rows     int
	rowBytes int
	fp       fingerprint
	cached   bool
	firstRow time.Duration // send to first row record; 0 when no rows
	total    time.Duration // send to last record
}

// client sends /query requests over a bounded pool of keep-alive
// connections.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	url string
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, url: url + "/query"}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

var (
	rowPrefix  = []byte(`{"row":`)
	errPrefix  = []byte(`{"error":`)
	cachedTrue = []byte(`"cached":true`)
)

// do sends one request and reads the NDJSON stream to its last record:
// a header, one record per row, then a trailer (or an error record).
func (c *client) do(r request) (reply, error) {
	var rep reply
	t0 := time.Now()
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	br := bufio.NewReader(resp.Body)
	header, err := br.ReadSlice('\n')
	if err != nil {
		return rep, fmt.Errorf("header: %w", err)
	}
	rep.cached = bytes.Contains(header, cachedTrue)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return rep, fmt.Errorf("stream ended without trailer: %w", err)
		}
		line = line[:len(line)-1]
		if bytes.HasPrefix(line, rowPrefix) {
			if rep.rows == 0 {
				rep.firstRow = time.Since(t0)
			}
			rep.rows++
			rep.rowBytes += len(line) + 1
			rep.fp.add(line)
			continue
		}
		rep.total = time.Since(t0)
		if bytes.HasPrefix(line, errPrefix) {
			return rep, fmt.Errorf("error record: %s", line)
		}
		var tr struct {
			Rows *int `json:"rows"`
		}
		if err := json.Unmarshal(line, &tr); err != nil || tr.Rows == nil {
			return rep, fmt.Errorf("malformed trailer: %s", line)
		}
		if *tr.Rows != rep.rows {
			return rep, fmt.Errorf("trailer says %d rows, stream carried %d", *tr.Rows, rep.rows)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			return rep, errors.New("data after trailer")
		}
		return rep, nil
	}
}

// readSample is one completed (or failed) read.
type readSample struct {
	req request
	rep reply
	err error
}

// readLoop is one closed-loop connection: send, read to the last record,
// repeat until the deadline. With a span log it also replays the request
// in process after each reply (see replay).
func readLoop(c *client, gen *reqGen, until time.Time, log *spanLog, st graph.Store, reqBase int64) []readSample {
	var out []readSample
	rc := map[string]*gpml.Query{}
	for i := int64(0); time.Now().Before(until); i++ {
		r := gen.next()
		t0 := time.Now()
		rep, err := c.do(r)
		t1 := time.Now()
		out = append(out, readSample{req: r, rep: rep, err: err})
		if log != nil && err == nil {
			id := reqBase + i
			root := log.record("request", t0, t1, -1, id)
			if rerr := replay(log, root, id, t0, rc, st, r, rep.cached); rerr != nil {
				out[len(out)-1].err = fmt.Errorf("replay: %w", rerr)
			}
			if perr := compileProbe(log, r.src, id); perr != nil {
				out[len(out)-1].err = fmt.Errorf("probe: %w", perr)
			}
		}
	}
	return out
}

// replay re-runs in process the layer calls gpmld made for one request —
// normalize.QueryKey, gpml.Compile when the server reported a cache miss,
// then Stream and drain on the same store — and lays the resulting spans
// onto the request's own timeline, starting at its send time, as children
// of the request span. The request's self time is then the server layer's
// share: HTTP, JSON, admission, NDJSON encoding and the transport.
func replay(log *spanLog, parent int, id int64, at time.Time, rc map[string]*gpml.Query, st graph.Store, r request, cached bool) error {
	sub := newSpanLog(log.origin)
	t0 := time.Now()
	key, err := normalize.QueryKey(r.src)
	if err != nil {
		return err
	}
	t1 := time.Now()
	sub.record("normalize.querykey", t0, t1, -1, id)
	q := rc[key]
	if !cached || q == nil {
		c0 := time.Now()
		if q, err = gpml.Compile(r.src); err != nil {
			return err
		}
		rc[key] = q
		if !cached {
			sub.record("compile", c0, time.Now(), -1, id)
		}
	}
	if _, err := streamDrain(context.Background(), sub, -1, id, q, st, false, r.options()...); err != nil {
		return err
	}
	end := time.Now()
	shift := int64(at.Sub(t0))
	rp := log.record("replay", at, at.Add(end.Sub(t0)), parent, id)
	base := len(log.spans)
	for _, s := range sub.spans {
		s.Start += shift
		s.End += shift
		if s.Parent < 0 {
			s.Parent = rp
		} else {
			s.Parent += base
		}
		log.spans = append(log.spans, s)
	}
	return nil
}

// inprocAnswer is the reference answer: the same statement streamed in
// process on st, rows encoded as gpmld encodes them.
func inprocAnswer(st graph.Store, r request) (fingerprint, error) {
	q, err := gpml.Compile(r.src)
	if err != nil {
		return fingerprint{}, err
	}
	d, err := streamDrain(context.Background(), nil, -1, 0, q, st, true, r.options()...)
	return d.fp, err
}

// checkSample picks up to n logged reads with a seeded draw.
func checkSample(rng *rand.Rand, samples []readSample, n int) []readSample {
	var ok []readSample
	for _, s := range samples {
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	rng.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
	if len(ok) > n {
		ok = ok[:n]
	}
	return ok
}

// runReaders runs conns closed-loop connections until the deadline.
func runReaders(c *client, gens []*reqGen, until time.Time, logs []*spanLog, st graph.Store) []readSample {
	var wg sync.WaitGroup
	res := make([][]readSample, len(gens))
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = readLoop(c, gens[i], until, logs[i], st, int64(i)<<40)
		}(i)
	}
	wg.Wait()
	var out []readSample
	for _, r := range res {
		out = append(out, r...)
	}
	return out
}

// snbFacts is what the benchmark keeps of the generated graph once the
// served store is built, so the generator's map graph can be collected
// before anything is timed.
type snbFacts struct {
	nodes, edges           int
	persons, forums, posts int
	hubs                   map[string]bool // firstNames of the top 1% of persons by knows degree
}

func factsOf(st graph.Store) snbFacts {
	f := snbFacts{
		nodes:   st.NumNodes(),
		edges:   st.NumEdges(),
		persons: st.CountNodesWithLabel("Person"),
		forums:  st.CountNodesWithLabel("Forum"),
		posts:   st.CountNodesWithLabel("Post"),
		hubs:    map[string]bool{},
	}
	type pd struct {
		name string
		deg  int
	}
	var ps []pd
	st.NodesWithLabel("Person", func(n *graph.Node) bool {
		d := 0
		st.Incident(n.ID, func(e *graph.Edge) bool {
			if len(e.Labels) > 0 && e.Labels[0] == "knows" {
				d++
			}
			return true
		})
		name, _ := n.Props["firstName"].AsString()
		ps = append(ps, pd{name, d})
		return true
	})
	sort.Slice(ps, func(i, j int) bool { return ps[i].deg > ps[j].deg })
	for _, p := range ps[:(len(ps)+99)/100] {
		f.hubs[p.name] = true
	}
	return f
}
