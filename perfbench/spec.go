package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloads.json freezes every workload's traffic: the ladder rates, the
// mix, the flags and the preload. The parent commit and a change run
// identical loads because these numbers never depend on a measurement.
//
//go:embed workloads.json
var workloadsJSON []byte

type workloadSpec struct {
	Name             string             `json:"-"`
	Why              string             `json:"why"`
	Headline         string             `json:"headline"`
	LeaderFlags      []string           `json:"leader_flags"`
	Follower         bool               `json:"follower"`
	Queues           int                `json:"queues"`
	PreloadPerStream int                `json:"preload_per_stream"`
	WALTailRecords   int                `json:"wal_tail_records"`
	RatesRPS         []float64          `json:"rates_rps"`
	Mix              map[string]float64 `json:"mix"`
	ObserveSkew      string             `json:"observe_skew"`
	TrickleRPS       float64            `json:"trickle_rps"`
	WhatifJobs       int                `json:"whatif_jobs"`
	WarmupShare      float64            `json:"warmup_share"`
	P99LimitMS       map[string]float64 `json:"p99_limit_ms"`
}

// Limits and rates that hold for every workload. The probe rate and the
// lag limit apply only where a workload has a follower.
const (
	// failLimit is the largest share of failed requests a passing rung
	// may have, per operation.
	failLimit = 0.001
	// probeRPS is the follower-visibility probe rate.
	probeRPS = 8
	// lagLimitRecords is the follower lag a passing rung stays under.
	lagLimitRecords = 20000
)

func loadSpec(name string) (*workloadSpec, error) {
	all := map[string]*workloadSpec{}
	if err := json.Unmarshal(workloadsJSON, &all); err != nil {
		return nil, fmt.Errorf("workloads.json: %v", err)
	}
	s, ok := all[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	s.Name = name
	if len(s.RatesRPS) != 3 {
		return nil, fmt.Errorf("workload %s: the ladder needs exactly 3 rates", name)
	}
	return s, nil
}
