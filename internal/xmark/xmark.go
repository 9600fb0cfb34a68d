// Package xmark implements an XMark-lite substrate: an auction-site
// document generator and query set modeled on the XMark benchmark. The
// paper reports its XMark results only in the accompanying technical
// report, so this package powers the repository's extension experiment
// validating that the advisor's behaviour is not TPoX-specific.
package xmark

import (
	"fmt"
	"math/rand"

	"xixa/internal/storage"
	"xixa/internal/xmltree"
)

// Table is the XMark table name.
const Table = "XMARK"

var (
	categories = []string{
		"antiques", "books", "coins", "computers", "electronics",
		"jewelry", "music", "sports", "stamps", "toys",
	}
	regions = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}
	words   = []string{
		"vintage", "rare", "mint", "boxed", "signed", "limited",
		"classic", "sealed", "graded", "original",
	}
)

// Config sizes the generated auction site.
type Config struct {
	Items   int
	People  int
	Auction int // closed auctions
	Seed    int64
}

// DefaultConfig returns counts for a scale factor (scale 1 = 1200 docs).
func DefaultConfig(scale int) Config {
	if scale < 1 {
		scale = 1
	}
	return Config{Items: 600 * scale, People: 400 * scale, Auction: 200 * scale, Seed: 2001}
}

func itemDoc(r *rand.Rand, i int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("item").
		Attr("id", fmt.Sprintf("item%05d", i)).
		Leaf("name", fmt.Sprintf("%s %s %d", words[r.Intn(len(words))], categories[r.Intn(len(categories))], i)).
		Leaf("category", categories[r.Intn(len(categories))]).
		Leaf("location", regions[r.Intn(len(regions))]).
		LeafInt("quantity", int64(1+r.Intn(10))).
		Begin("payment").Leaf("method", []string{"cash", "check", "wire"}[r.Intn(3)]).End().
		Begin("description").
		Begin("parlist").
		Leaf("listitem", words[r.Intn(len(words))]).
		Leaf("listitem", words[r.Intn(len(words))]).
		End().
		End().
		Begin("mailbox").
		Begin("mail").Leaf("from", fmt.Sprintf("p%d", r.Intn(1000))).Leaf("date", "2001-07-04").End().
		End().
		End()
	return b.Document()
}

func personDoc(r *rand.Rand, i int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("person").
		Attr("id", fmt.Sprintf("person%05d", i)).
		Leaf("name", fmt.Sprintf("Person %d", i)).
		Begin("profile").
		LeafFloat("income", 20000+float64(r.Intn(100000))).
		Leaf("education", []string{"High School", "College", "Graduate School"}[r.Intn(3)]).
		Begin("interest").Attr("category", categories[r.Intn(len(categories))]).End().
		End().
		Begin("address").
		Leaf("city", fmt.Sprintf("City%d", r.Intn(50))).
		Leaf("country", regions[r.Intn(len(regions))]).
		End().
		End()
	return b.Document()
}

func closedAuctionDoc(r *rand.Rand, i int) *xmltree.Document {
	b := xmltree.NewBuilder()
	b.Begin("closed_auction").
		Attr("id", fmt.Sprintf("closed%05d", i)).
		Leaf("seller", fmt.Sprintf("person%05d", r.Intn(10000))).
		Leaf("buyer", fmt.Sprintf("person%05d", r.Intn(10000))).
		Leaf("itemref", fmt.Sprintf("item%05d", r.Intn(10000))).
		LeafFloat("price", 1+float64(r.Intn(100000))/100).
		Leaf("date", fmt.Sprintf("2001-%02d-%02d", 1+r.Intn(12), 1+r.Intn(28))).
		LeafInt("quantity", int64(1+r.Intn(5))).
		Begin("annotation").Leaf("description", words[r.Intn(len(words))]).End().
		End()
	return b.Document()
}

// Generate fills the XMARK table with items, people, and closed
// auctions (heterogeneous roots in one table, as XMark's single
// document would shred), as one commit.
func Generate(db *storage.Database, cfg Config) error {
	if _, err := db.CreateTable(Table); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	docs := make([]*xmltree.Document, 0, cfg.Items+cfg.People+cfg.Auction)
	for i := 0; i < cfg.Items; i++ {
		docs = append(docs, itemDoc(r, i))
	}
	for i := 0; i < cfg.People; i++ {
		docs = append(docs, personDoc(r, i))
	}
	for i := 0; i < cfg.Auction; i++ {
		docs = append(docs, closedAuctionDoc(r, i))
	}
	_, err := db.Load(Table, docs...)
	return err
}

// NewDatabase generates a fresh XMark-lite database.
func NewDatabase(scale int) (*storage.Database, error) {
	db := storage.NewDatabase()
	if err := Generate(db, DefaultConfig(scale)); err != nil {
		return nil, err
	}
	return db, nil
}

// Queries returns the XMark-lite query workload (modeled on XMark's
// Q1-style value lookups and range scans).
func Queries() []string {
	return []string{
		// XMark Q1: person by id.
		`for $p in XMARK('XDOC')/person where $p/@id = "person00013" return $p/name`,
		// Items in a category.
		`for $i in XMARK('XDOC')/item where $i/category = "coins" return <r>{$i/name}</r>`,
		// Items in a region (wildcard navigation).
		`for $i in XMARK('XDOC')/item where $i/location = "europe" return $i`,
		// Expensive closed auctions.
		`XMARK('XDOC')/closed_auction[price>900.0]`,
		// Rich people (numeric range deep in profile).
		`for $p in XMARK('XDOC')/person where $p/profile/income > 100000.0 return <r>{$p/name}</r>`,
		// Interest category via descendant navigation.
		`for $p in XMARK('XDOC')/person where $p//interest/@category = "books" return $p/name`,
		// Auction by item reference.
		`for $a in XMARK('XDOC')/closed_auction where $a/itemref = "item00042" return $a/price`,
	}
}
