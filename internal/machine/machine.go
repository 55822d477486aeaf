// Package machine provides the parametric machine models that stand in
// for the paper's physical testbeds (NERSC Cori Haswell and KNL
// partitions). The application simulators consume these parameters to
// produce runtimes whose shape — scaling with node count, sensitivity to
// process-grid choices, memory capacity limits — matches the real
// systems closely enough for the transfer-learning experiments to be
// meaningful.
package machine

import "fmt"

// Machine describes one allocation on one platform.
type Machine struct {
	Name          string  // e.g. "Cori"
	Partition     string  // e.g. "haswell", "knl"
	Nodes         int     // allocated compute nodes
	CoresPerNode  int     // physical cores per node
	GFlopsPerCore float64 // sustained DGEMM-class rate per core
	NetLatencyUS  float64 // point-to-point latency, microseconds
	NetBWGBs      float64 // per-node injection bandwidth, GB/s
	MemPerNodeGB  float64 // usable memory per node
	// SerialPenalty models how much slower poorly-vectorized serial
	// sections run relative to Haswell (KNL's weak cores → > 1).
	SerialPenalty float64
}

// TotalCores returns nodes × cores-per-node.
func (m Machine) TotalCores() int { return m.Nodes * m.CoresPerNode }

// TotalMemGB returns the aggregate memory of the allocation.
func (m Machine) TotalMemGB() float64 { return float64(m.Nodes) * m.MemPerNodeGB }

// String renders a short description.
func (m Machine) String() string {
	return fmt.Sprintf("%s/%s %d nodes × %d cores", m.Name, m.Partition, m.Nodes, m.CoresPerNode)
}

// Validate checks the model is usable.
func (m Machine) Validate() error {
	if m.Nodes <= 0 || m.CoresPerNode <= 0 {
		return fmt.Errorf("machine: %s has no cores", m.Name)
	}
	if m.GFlopsPerCore <= 0 || m.NetBWGBs <= 0 || m.MemPerNodeGB <= 0 {
		return fmt.Errorf("machine: %s has non-positive rates", m.Name)
	}
	return nil
}

// CoriHaswell returns a Cori Haswell allocation: dual 16-core Xeon
// E5-2698v3 per node, 128 GB DDR4, Cray Aries interconnect.
func CoriHaswell(nodes int) Machine {
	return Machine{
		Name:          "Cori",
		Partition:     "haswell",
		Nodes:         nodes,
		CoresPerNode:  32,
		GFlopsPerCore: 18.0,
		NetLatencyUS:  1.3,
		NetBWGBs:      8.0,
		MemPerNodeGB:  118, // 128 GB minus OS/system overhead
		SerialPenalty: 1.0,
	}
}

// CoriKNL returns a Cori KNL allocation: one 68-core Xeon Phi 7250 per
// node, 96 GB DDR4 + 16 GB MCDRAM. The paper uses 68 cores but
// schedules 64 task slots per node (4 reserved for the OS), so the
// model exposes 64.
func CoriKNL(nodes int) Machine {
	return Machine{
		Name:          "Cori",
		Partition:     "knl",
		Nodes:         nodes,
		CoresPerNode:  64,
		GFlopsPerCore: 9.0, // strong vector units but low serial rate
		NetLatencyUS:  1.6,
		NetBWGBs:      8.0,
		MemPerNodeGB:  87,
		SerialPenalty: 3.0,
	}
}
