// Package dram models the main-memory side of the machine: a multi-
// channel, multi-bank DRAM with open-row policy. The paper's Table I
// includes memory bandwidth and the DRAM "memory page miss rate" (row-
// buffer miss rate); this controller produces both from the actual
// address stream rather than from assumptions, and its per-bank row state
// gives sequential streams their row-hit latency advantage.
package dram

import "fmt"

// Config describes the memory system geometry and timing.
type Config struct {
	Channels int // address-interleaved at line granularity
	Banks    int // per channel
	RowBytes int // row-buffer size (a DRAM page)

	// Latencies in core cycles.
	RowHitLat      int // CAS only: the open row already holds the line
	RowMissLat     int // activate + CAS: bank was idle or precharged
	RowConflictLat int // precharge + activate + CAS: another row was open
}

// Default returns a geometry typical of the paper's dual-channel DDR4
// client platforms, scaled from a base access latency (the machine
// model's DRAMLat, treated as the row-miss latency).
func Default(baseLat int) Config {
	if baseLat <= 0 {
		baseLat = 220
	}
	return Config{
		Channels:       2,
		Banks:          16,
		RowBytes:       8192,
		RowHitLat:      baseLat * 6 / 10,
		RowMissLat:     baseLat,
		RowConflictLat: baseLat * 14 / 10,
	}
}

// Validate reports geometry errors.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.Channels&(c.Channels-1) != 0 {
		return fmt.Errorf("dram: channels %d must be a positive power of two", c.Channels)
	}
	if c.Banks <= 0 || c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("dram: banks %d must be a positive power of two", c.Banks)
	}
	if c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row size %d must be a positive power of two", c.RowBytes)
	}
	if c.RowHitLat <= 0 || c.RowMissLat < c.RowHitLat || c.RowConflictLat < c.RowMissLat {
		return fmt.Errorf("dram: latencies must order hit <= miss <= conflict")
	}
	return nil
}

// Stats counts controller activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // idle-bank activations
	RowConflicts uint64 // precharge-then-activate
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// PageMissRate returns the paper's "memory page miss rate": the fraction
// of accesses that did not hit an open row, in percent.
func (s Stats) PageMissRate() float64 {
	total := s.Accesses()
	if total == 0 {
		return 0
	}
	return float64(s.RowMisses+s.RowConflicts) / float64(total) * 100
}

// Controller is the DRAM controller; one per machine (memory is shared
// across cores).
type Controller struct {
	cfg Config

	chanMask uint64
	bankMask uint64
	rowShift uint

	// openRow[channel*banks+bank] holds the open row id + 1 (0 = closed).
	openRow []uint64

	Stats Stats
}

// New builds a controller; the configuration must validate.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rowShift := uint(0)
	for r := cfg.RowBytes; r > 1; r >>= 1 {
		rowShift++
	}
	return &Controller{
		cfg:      cfg,
		chanMask: uint64(cfg.Channels - 1),
		bankMask: uint64(cfg.Banks - 1),
		rowShift: rowShift,
		openRow:  make([]uint64, cfg.Channels*cfg.Banks),
	}, nil
}

// Access performs one line access and returns its latency in core cycles.
// Address mapping: channel from the line bits (spread streams across
// channels), bank from the row's low bits, row from the high bits.
func (c *Controller) Access(addr uint64, write bool) int {
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	line := addr >> 6
	channel := line & c.chanMask
	row := addr >> c.rowShift
	bank := (row ^ row>>7) & c.bankMask // XOR-fold to spread hot rows
	slot := int(channel)*c.cfg.Banks + int(bank)

	open := c.openRow[slot]
	switch {
	case open == row+1:
		c.Stats.RowHits++
		return c.cfg.RowHitLat
	case open == 0:
		c.Stats.RowMisses++
		c.openRow[slot] = row + 1
		return c.cfg.RowMissLat
	default:
		c.Stats.RowConflicts++
		c.openRow[slot] = row + 1
		return c.cfg.RowConflictLat
	}
}

// Reset closes every row and clears the counters: the state New gives.
func (c *Controller) Reset() {
	clear(c.openRow)
	c.Stats = Stats{}
}

// ResetStats clears counters, keeping open-row state (warm controller).
func (c *Controller) ResetStats() { c.Stats = Stats{} }

// BytesRead and BytesWritten report traffic in bytes (64 B lines).
func (c *Controller) BytesRead() uint64 { return c.Stats.Reads * 64 }

// BytesWritten reports write traffic in bytes.
func (c *Controller) BytesWritten() uint64 { return c.Stats.Writes * 64 }
