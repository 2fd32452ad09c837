// Package procedures implements the benchmark query workloads of Exp-2
// (Fig 7f, 7g): the LDBC SNB Interactive complex (C1–C14), short (S1–S7) and
// update (U1–U8) operations, and the SNB Business Intelligence queries
// (BI1–BI20), expressed against this repository's condensed SNB schema
// (package dataset). Query *shapes* follow the official workloads —
// multi-hop friend expansions, message subtrees, tag/forum aggregations —
// adapted to the supported Cypher subset.
package procedures

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// Query is one parameterized benchmark query.
type Query struct {
	Name   string
	Cypher string
	// Params draws parameter bindings for one execution.
	Params func(r *rand.Rand, scale Scale) map[string]graph.Value
}

// Scale describes the generated dataset so parameter generators stay in
// range.
type Scale struct {
	Persons  int
	Forums   int
	Posts    int
	Comments int
	Tags     int
	Places   int
}

// ScaleOf derives Scale from the generator's option.
func ScaleOf(persons int) Scale {
	return Scale{
		Persons:  persons,
		Forums:   persons/10 + 1,
		Posts:    persons * 3,
		Comments: persons * 5,
		Tags:     16,
		Places:   12,
	}
}

func pid(r *rand.Rand, s Scale) graph.Value  { return graph.IntValue(int64(r.Intn(s.Persons))) }
func post(r *rand.Rand, s Scale) graph.Value { return graph.IntValue(int64(r.Intn(s.Posts))) }

func onePerson(name, cypher string) Query {
	return Query{Name: name, Cypher: cypher, Params: func(r *rand.Rand, s Scale) map[string]graph.Value {
		return map[string]graph.Value{"pid": pid(r, s)}
	}}
}

// Interactive returns the complex read queries C1–C14.
func Interactive() []Query {
	return []Query{
		// C1: friends with a given first name, by name.
		{Name: "C1", Cypher: `MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE id(p) = $pid AND f.firstName = $name
RETURN f.lastName, id(f)
ORDER BY f.lastName LIMIT 20`,
			Params: func(r *rand.Rand, s Scale) map[string]graph.Value {
				return map[string]graph.Value{"pid": pid(r, s), "name": graph.StringValue("Wei")}
			}},
		// C2: recent posts by friends.
		onePerson("C2", `MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)
WHERE id(p) = $pid
RETURN id(f), m.content, m.creationDate
ORDER BY m.creationDate DESC LIMIT 20`),
		// C3: friends located in a given place.
		{Name: "C3", Cypher: `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:IS_LOCATED_IN]->(pl:Place)
WHERE id(p) = $pid AND pl.name = $place
RETURN id(f), f.firstName
ORDER BY id(f) LIMIT 20`,
			Params: func(r *rand.Rand, s Scale) map[string]graph.Value {
				return map[string]graph.Value{"pid": pid(r, s), "place": graph.StringValue("Berlin")}
			}},
		// C4: tags of posts created by friends.
		onePerson("C4", `MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)-[:HAS_TAG]->(t:Tag)
WHERE id(p) = $pid
WITH t, COUNT(m) AS postCount
RETURN t.name, postCount
ORDER BY postCount DESC, t.name LIMIT 10`),
		// C5: forums friends joined.
		onePerson("C5", `MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_MEMBER]-(fo:Forum)
WHERE id(p) = $pid
WITH fo, COUNT(f) AS members
RETURN fo.title, members
ORDER BY members DESC, fo.title LIMIT 20`),
		// C6: co-occurring tags on friends' posts.
		{Name: "C6", Cypher: `MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:HAS_CREATOR]-(m:Post)-[:HAS_TAG]->(t:Tag)
WHERE id(p) = $pid AND t.name <> $tag
WITH t, COUNT(m) AS cnt
RETURN t.name, cnt
ORDER BY cnt DESC, t.name LIMIT 10`,
			Params: func(r *rand.Rand, s Scale) map[string]graph.Value {
				return map[string]graph.Value{"pid": pid(r, s), "tag": graph.StringValue("music")}
			}},
		// C7: recent likers of the person's posts.
		onePerson("C7", `MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post)<-[:LIKES]-(liker:Person)
WHERE id(p) = $pid
RETURN id(liker), liker.firstName, m.content
ORDER BY id(liker) LIMIT 20`),
		// C8: recent replies to the person's posts.
		onePerson("C8", `MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post)<-[:REPLY_OF]-(c:Comment)-[:COMMENT_HAS_CREATOR]->(author:Person)
WHERE id(p) = $pid
RETURN id(author), c.content, c.creationDate
ORDER BY c.creationDate DESC LIMIT 20`),
		// C9: recent messages by friends-of-friends.
		onePerson("C9", `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(ff:Person)<-[:HAS_CREATOR]-(m:Post)
WHERE id(p) = $pid
RETURN id(ff), m.content, m.creationDate
ORDER BY m.creationDate DESC LIMIT 20`),
		// C10: friend-of-friend recommendation by shared interests.
		onePerson("C10", `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(ff:Person)-[:HAS_INTEREST]->(t:Tag)
WHERE id(p) = $pid
WITH ff, COUNT(t) AS common
RETURN id(ff), common
ORDER BY common DESC, id(ff) LIMIT 10`),
		// C11: friends' browsers (stand-in for job referrals).
		onePerson("C11", `MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE id(p) = $pid
RETURN f.browserUsed, id(f)
ORDER BY id(f) LIMIT 10`),
		// C12: expert search — friends commenting on tagged posts.
		{Name: "C12", Cypher: `MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:COMMENT_HAS_CREATOR]-(c:Comment)-[:REPLY_OF]->(m:Post)-[:HAS_TAG]->(t:Tag)
WHERE id(p) = $pid AND t.name = $tag
WITH f, COUNT(c) AS replies
RETURN id(f), replies
ORDER BY replies DESC, id(f) LIMIT 20`,
			Params: func(r *rand.Rand, s Scale) map[string]graph.Value {
				return map[string]graph.Value{"pid": pid(r, s), "tag": graph.StringValue("tech")}
			}},
		// C13: two-hop reachability proxy.
		onePerson("C13", `MATCH (p:Person)-[:KNOWS]->(f:Person)-[:KNOWS]->(ff:Person)
WHERE id(p) = $pid
RETURN COUNT(ff) AS reach`),
		// C14: weighted interaction paths proxy: comment counts between
		// friend pairs.
		onePerson("C14", `MATCH (p:Person)-[:KNOWS]->(f:Person)<-[:COMMENT_HAS_CREATOR]-(c:Comment)-[:REPLY_OF]->(m:Post)-[:HAS_CREATOR]->(p2:Person)
WHERE id(p) = $pid
WITH f, COUNT(c) AS weight
RETURN id(f), weight
ORDER BY weight DESC, id(f) LIMIT 20`),
	}
}

// Short returns the short read queries S1–S7 (point lookups and 1-hops).
func Short() []Query {
	return []Query{
		onePerson("S1", `MATCH (p:Person)
WHERE id(p) = $pid
RETURN p.firstName, p.lastName, p.birthday, p.browserUsed`),
		onePerson("S2", `MATCH (p:Person)<-[:HAS_CREATOR]-(m:Post)
WHERE id(p) = $pid
RETURN m.content, m.creationDate
ORDER BY m.creationDate DESC LIMIT 10`),
		onePerson("S3", `MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE id(p) = $pid
RETURN id(f), f.firstName, f.lastName
ORDER BY id(f)`),
		{Name: "S4", Cypher: `MATCH (m:Post)
WHERE id(m) = $post
RETURN m.creationDate, m.content`,
			Params: func(r *rand.Rand, s Scale) map[string]graph.Value {
				return map[string]graph.Value{"post": post(r, s)}
			}},
		{Name: "S5", Cypher: `MATCH (m:Post)-[:HAS_CREATOR]->(p:Person)
WHERE id(m) = $post
RETURN id(p), p.firstName, p.lastName`,
			Params: func(r *rand.Rand, s Scale) map[string]graph.Value {
				return map[string]graph.Value{"post": post(r, s)}
			}},
		{Name: "S6", Cypher: `MATCH (m:Post)<-[:CONTAINER_OF]-(f:Forum)
WHERE id(m) = $post
RETURN f.title`,
			Params: func(r *rand.Rand, s Scale) map[string]graph.Value {
				return map[string]graph.Value{"post": post(r, s)}
			}},
		{Name: "S7", Cypher: `MATCH (m:Post)<-[:REPLY_OF]-(c:Comment)-[:COMMENT_HAS_CREATOR]->(a:Person)
WHERE id(m) = $post
RETURN c.content, id(a)
ORDER BY c.creationDate DESC LIMIT 10`,
			Params: func(r *rand.Rand, s Scale) map[string]graph.Value {
				return map[string]graph.Value{"post": post(r, s)}
			}},
	}
}

// MutableGraph is the mutation surface the update workloads drive — the
// subset of dynamic-store operations U1–U8 need. gart.Store satisfies it;
// expressing updates against the interface keeps this runtime package on
// the engine side of the GRIN storage boundary (the workload compiles
// against any MVCC store, and flexlint's grinboundary analyzer, which has
// no exceptions, stays clean).
type MutableGraph interface {
	// AddVertex inserts a vertex with properties in schema order.
	AddVertex(label graph.LabelID, extID int64, props ...graph.Value) error
	// AddEdge inserts an edge between externally-identified endpoints.
	AddEdge(label graph.LabelID, srcExt, dstExt int64, props ...graph.Value) error
	// Commit publishes the writes as a new read version.
	Commit() uint64
}

// Update applies one SNB update operation to a dynamic store.
type Update struct {
	Name  string
	Apply func(s MutableGraph, r *rand.Rand, sc Scale, ids *IDAllocator) error
}

// IDAllocator hands out fresh external IDs above the generated ranges.
type IDAllocator struct {
	person  atomic.Int64
	post    atomic.Int64
	comment atomic.Int64
	forum   atomic.Int64
}

// NewIDAllocator seeds counters beyond the generated dataset.
func NewIDAllocator(sc Scale) *IDAllocator {
	a := &IDAllocator{}
	a.person.Store(int64(sc.Persons))
	a.post.Store(int64(sc.Posts))
	a.comment.Store(int64(sc.Comments))
	a.forum.Store(int64(sc.Forums))
	return a
}

// Updates returns the update operations U1–U8.
func Updates() []Update {
	day := int64(86400)
	now := func(r *rand.Rand) graph.Value {
		return graph.IntValue(1_700_000_000 + int64(r.Intn(1000))*day)
	}
	return []Update{
		{Name: "U1", Apply: func(s MutableGraph, r *rand.Rand, sc Scale, ids *IDAllocator) error {
			// Add person.
			id := ids.person.Add(1) - 1
			err := s.AddVertex(dataset.SNBPerson, id,
				graph.StringValue("New"), graph.StringValue("Person"),
				graph.IntValue(0), now(r), graph.StringValue("Chrome"))
			s.Commit()
			return err
		}},
		{Name: "U2", Apply: func(s MutableGraph, r *rand.Rand, sc Scale, ids *IDAllocator) error {
			// Add like.
			err := s.AddEdge(dataset.SNBLikes, int64(r.Intn(sc.Persons)), int64(r.Intn(sc.Posts)), now(r))
			s.Commit()
			return err
		}},
		{Name: "U3", Apply: func(s MutableGraph, r *rand.Rand, sc Scale, ids *IDAllocator) error {
			// Add forum.
			id := ids.forum.Add(1) - 1
			err := s.AddVertex(dataset.SNBForum, id, graph.StringValue(fmt.Sprintf("Forum %d", id)), now(r))
			s.Commit()
			return err
		}},
		{Name: "U4", Apply: func(s MutableGraph, r *rand.Rand, sc Scale, ids *IDAllocator) error {
			// Add forum membership.
			err := s.AddEdge(dataset.SNBHasMember, int64(r.Intn(sc.Forums)), int64(r.Intn(sc.Persons)), now(r))
			s.Commit()
			return err
		}},
		{Name: "U5", Apply: func(s MutableGraph, r *rand.Rand, sc Scale, ids *IDAllocator) error {
			// Add post with creator and container.
			id := ids.post.Add(1) - 1
			if err := s.AddVertex(dataset.SNBPost, id,
				graph.StringValue("new post"), now(r), graph.IntValue(42)); err != nil {
				return err
			}
			if err := s.AddEdge(dataset.SNBHasCreator, id, int64(r.Intn(sc.Persons))); err != nil {
				return err
			}
			err := s.AddEdge(dataset.SNBContainerOf, int64(r.Intn(sc.Forums)), id)
			s.Commit()
			return err
		}},
		{Name: "U6", Apply: func(s MutableGraph, r *rand.Rand, sc Scale, ids *IDAllocator) error {
			// Add comment replying to a post.
			id := ids.comment.Add(1) - 1
			if err := s.AddVertex(dataset.SNBComment, id,
				graph.StringValue("new comment"), now(r), graph.IntValue(10)); err != nil {
				return err
			}
			if err := s.AddEdge(dataset.SNBCommentHasCreator, id, int64(r.Intn(sc.Persons))); err != nil {
				return err
			}
			err := s.AddEdge(dataset.SNBReplyOf, id, int64(r.Intn(sc.Posts)))
			s.Commit()
			return err
		}},
		{Name: "U7", Apply: func(s MutableGraph, r *rand.Rand, sc Scale, ids *IDAllocator) error {
			// Add friendship (both arcs, mirroring the generator).
			a, b := int64(r.Intn(sc.Persons)), int64(r.Intn(sc.Persons))
			if a == b {
				return nil
			}
			d := now(r)
			if err := s.AddEdge(dataset.SNBKnows, a, b, d); err != nil {
				return err
			}
			err := s.AddEdge(dataset.SNBKnows, b, a, d)
			s.Commit()
			return err
		}},
		{Name: "U8", Apply: func(s MutableGraph, r *rand.Rand, sc Scale, ids *IDAllocator) error {
			// Add interest.
			err := s.AddEdge(dataset.SNBHasInterest, int64(r.Intn(sc.Persons)), int64(r.Intn(sc.Tags)))
			s.Commit()
			return err
		}},
	}
}
