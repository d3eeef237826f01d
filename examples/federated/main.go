// Federated: local-update SGD under NON-IID data, the federated-learning
// regime the paper's introduction motivates (McMahan et al. 2016). Each
// worker's shard is label-skewed (sorted-by-label partitioning), so local
// models drift apart quickly and large communication periods hurt more than
// in the IID case. AdaComm still helps: it spends the early phase at large
// tau (fast progress) and shrinks tau as the drift penalty starts to bind.
//
//	go run ./examples/federated
package main

import (
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/delaymodel"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sgd"
)

func main() {
	const (
		workers = 4
		classes = 4
		dim     = 16
	)
	r := rng.New(11)
	full := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: classes, Dim: dim, N: 1280, Separation: 4, Noise: 1.5,
	}, r)
	train, test := data.SplitTrainTest(full, 256, r)

	model := nn.NewLogisticRegression(dim, classes)
	model.InitParams(r.Split())
	dm := delaymodel.New(workers, rng.Constant{Value: 1}, rng.Constant{Value: 4},
		delaymodel.ConstantScaling{})

	run := func(name string, shards []*data.Dataset, ctrl cluster.Controller) {
		e, err := cluster.New(model, shards, train, test, dm, cluster.Config{
			BatchSize: 8, MaxTime: 3000, EvalEvery: 100, Seed: 13,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tr := e.Run(ctrl, name)
		fmt.Printf("%-22s final loss %.4f   test acc %5.2f%%\n",
			name, tr.FinalLoss(), 100*e.TestAccuracy())
	}

	iid := data.ShardIID(train, workers, rng.New(20))
	nonIID := data.ShardByLabel(train, workers, rng.New(21))
	sched := sgd.Const{Eta: 0.12}
	adaCfg := core.Config{Tau0: 16, Interval: 300, Gamma: 0.5, Schedule: sched}

	fmt.Println("IID shards (each worker sees all classes):")
	run("  tau=1 (sync)", iid, cluster.FixedTau{Tau: 1, Schedule: sched})
	run("  tau=16 (fixed)", iid, cluster.FixedTau{Tau: 16, Schedule: sched})
	run("  AdaComm", iid, core.NewAdaComm(adaCfg))

	fmt.Println("\nnon-IID shards (each worker sees ~1 class — federated regime):")
	run("  tau=1 (sync)", nonIID, cluster.FixedTau{Tau: 1, Schedule: sched})
	run("  tau=16 (fixed)", nonIID, cluster.FixedTau{Tau: 16, Schedule: sched})
	run("  AdaComm", nonIID, core.NewAdaComm(adaCfg))

	fmt.Println("\nUnder non-IID sharding the fixed large period pays a visibly")
	fmt.Println("higher error floor (local models drift toward their own classes);")
	fmt.Println("AdaComm recovers most of it by shrinking tau over time.")

	crossDevice(r)
}

// crossDevice is the cross-device regime the barrier engine cannot touch: a
// population of 1024 clients, of which only K=32 participate in any update.
// The event-driven engine holds an idle client as a pair of RNG streams and
// an in-flight client as its compressed wire message, so the materialized
// footprint is a constant one replica plus four scratch vectors — memory
// proportional to the participation cap, not the population.
func crossDevice(r *rng.Rand) {
	const (
		clients = 1024
		k       = 32
		classes = 4
		dim     = 16
	)
	full := data.GaussianBlobs(data.GaussianBlobsConfig{
		Classes: classes, Dim: dim, N: 4096 + 256, Separation: 4, Noise: 1.5,
	}, r)
	train, test := data.SplitTrainTest(full, 256, r)
	model := nn.NewLogisticRegression(dim, classes)
	model.InitParams(r.Split())

	dm := delaymodel.FederatedProfile(1, 4096).Model(clients, nil)
	// Persistent device heterogeneity: each client's compute speed is a
	// seeded Pareto draw, so arrival order is far from uniform and the
	// K-of-m rule has real stragglers to skip.
	dm.Jitter = rng.Pareto{Xm: 1, Alpha: 3}
	dm.JitterSeed = 29

	e, err := cluster.NewAsync(model, data.ShardByLabel(train, clients, rng.New(22)),
		train, test, dm, cluster.AsyncConfig{
			Participation: k,
			Tau:           2,
			BatchSize:     4,
			LR:            0.1,
			MaxUpdates:    150,
			EvalEvery:     200,
			EvalSubset:    512,
			Seed:          31,
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr := e.Run("cross-device")
	st := e.Stats()
	fmt.Printf("\ncross-device: %d non-IID clients, first-%d-of-%d aggregation:\n", clients, k, clients)
	fmt.Printf("  final loss %.4f   test acc %5.2f%%   (%d updates, mean staleness %.2f)\n",
		tr.FinalLoss(), 100*e.TestAccuracy(), st.Updates, st.MeanStaleness)
	fmt.Printf("  materialized replicas: %d (+%d scratch vectors) for %d clients, peak %d in flight\n",
		st.MaterializedReplicas, st.ScratchVectors, clients, st.PeakInFlight)
	if st.MaterializedReplicas+st.ScratchVectors > k {
		fmt.Fprintf(os.Stderr, "memory budget violated: %d model-sized buffers > K=%d\n",
			st.MaterializedReplicas+st.ScratchVectors, k)
		os.Exit(1)
	}
}
