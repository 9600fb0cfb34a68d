package main

import (
	"fmt"
	"log"

	"xixa/internal/shard"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/xmltree"
)

// startCluster brings up the sharded backend: a shard.Cluster behind
// the same front end as a single server. The TPoX corpus loads through
// the router (so placement follows the partition keys), and the
// cluster-level tuner advises from the merged per-shard capture and
// statistics.
func startCluster(scale int, cfg shard.Config) *shard.Cluster {
	c, err := shard.NewCluster(cfg)
	if err != nil {
		log.Fatalf("xixad: %v", err)
	}
	log.Printf("generating TPoX data (scale %d) across %d shards", scale, c.Shards())
	staging, err := tpox.NewDatabase(scale)
	if err != nil {
		log.Fatalf("xixad: %v", err)
	}
	if err := loadCluster(c, staging); err != nil {
		log.Fatalf("xixad: load: %v", err)
	}
	c.StartAutoTune(logTune(func(rep *shard.TuneReport) bool { return rep.Skipped }))
	return c
}

// loadCluster replays a staging database through the cluster's router,
// so every document lands on the shard its partition key owns.
func loadCluster(c *shard.Cluster, staging *storage.Database) error {
	sess, err := c.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, name := range staging.TableNames() {
		if err := c.CreateTable(name); err != nil {
			return err
		}
		tbl, err := staging.Table(name)
		if err != nil {
			return err
		}
		var insErr error
		docs := tbl.Scan(func(d *xmltree.Document) bool {
			_, insErr = sess.Execute(fmt.Sprintf("insert into %s value %s", name, xmltree.SerializeString(d)))
			return insErr == nil
		})
		if insErr != nil {
			return fmt.Errorf("%s: %w", name, insErr)
		}
		log.Printf("loaded %s: %d documents across %d shards", name, docs, c.Shards())
	}
	return nil
}
