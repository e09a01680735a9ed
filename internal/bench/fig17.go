package bench

import (
	"io"
	"time"

	"ips/internal/client"
	"ips/internal/cluster"
	"ips/internal/faultinject"
	"ips/internal/model"
	"ips/internal/workload"
)

// Fig17Options scales the Fig. 17 experiment (client-side error rate over
// 20 days of production-like failures).
type Fig17Options struct {
	// Days of simulated operation; default 20 (as in the paper).
	Days int
	// RequestsPerDay issued by the client; default 1500.
	RequestsPerDay int
	// Regions and InstancesPerRegion shape the cluster; defaults 2 and 2.
	Regions            int
	InstancesPerRegion int
	// Seed drives the failure schedule.
	Seed int64
}

func (o *Fig17Options) fill() {
	if o.Days <= 0 {
		o.Days = 20
	}
	if o.RequestsPerDay <= 0 {
		o.RequestsPerDay = 1500
	}
	if o.Regions <= 0 {
		o.Regions = 2
	}
	if o.InstancesPerRegion <= 0 {
		o.InstancesPerRegion = 2
	}
	if o.Seed == 0 {
		o.Seed = 17
	}
}

// Fig17Point is one day of the series.
type Fig17Point struct {
	Day       int
	Requests  int64
	Errors    int64
	ErrorRate float64
}

// Fig17Report is the regenerated figure.
type Fig17Report struct {
	Points  []Fig17Point
	MaxRate float64
	AvgRate float64
	// SLA is 1 - overall error rate; the paper reports >= 99.99% with a
	// max daily error rate ~0.025% and average < 0.01%.
	SLA float64
	// Failure schedule summary.
	Crashes, DropEpisodes, RegionOutages int
}

// RunFig17 regenerates Fig. 17: a multi-region cluster serves a steady
// query load while the fault injector crashes instances, drops responses
// and takes whole regions out; the client-side error rate is recorded per
// simulated day.
func RunFig17(opts Fig17Options, w io.Writer) (*Fig17Report, error) {
	opts.fill()
	regions := make([]string, opts.Regions)
	for i := range regions {
		regions[i] = string(rune('a'+i)) + "-region"
	}
	clock := NewClock()
	cl, err := cluster.New(cluster.Options{
		Regions:            regions,
		InstancesPerRegion: opts.InstancesPerRegion,
		Clock:              clock.Now,
		Tables:             map[string]*model.Schema{TableName: model.NewSchema("like", "comment", "share")},
		RegistryTTL:        300 * time.Millisecond,
		HeartbeatInterval:  50 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	c, err := client.New(client.Options{
		Caller: "fig17", Service: "ips", Region: regions[0],
		Registry: cl.Registry, RefreshInterval: 50 * time.Millisecond,
		CallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	gen := workload.New(workload.Options{Seed: opts.Seed, Profiles: 500})
	inj := faultinject.New(cl, faultinject.Plan{
		Seed: opts.Seed, CrashProb: 0.30, RestartAfter: 1,
		DropProb: 0.40, DropRate: 0.02, DropTicks: 1,
		RegionOutageProb: 0.02, RegionOutageTicks: 1,
	})

	// Seed some data.
	now := clock.Now()
	for id := model.ProfileID(1); id <= 200; id++ {
		_ = c.Add(TableName, id, gen.WriteEntry(now))
	}
	for _, n := range cl.Nodes() {
		n.Instance().MergeAll()
		_ = n.Instance().FlushAll()
	}

	rep := &Fig17Report{}
	fprintf(w, "Fig. 17 — client-side error rate under production-like failures\n")
	fprintf(w, "%-5s %-10s %-8s %-10s\n", "day", "requests", "errors", "error%%"+"")

	var totalReq, totalErr int64
	ticksPerDay := 4
	for day := 0; day < opts.Days; day++ {
		var dayReq, dayErr int64
		perTick := opts.RequestsPerDay / ticksPerDay
		for tick := 0; tick < ticksPerDay; tick++ {
			inj.Tick()
			// No convergence grace: requests race the failure the way
			// production traffic does; the client's periodic refresh and
			// ring failover absorb most, not all, of the window.
			for i := 0; i < perTick; i++ {
				dayReq++
				if i%11 == 0 {
					if err := c.Add(TableName, gen.ProfileID(), gen.WriteEntry(clock.Now())); err != nil {
						dayErr++
					}
					continue
				}
				if _, err := c.TopK(gen.Query(TableName)); err != nil {
					dayErr++
				}
			}
			clock.Advance(6 * 3_600_000) // a tick is 6 simulated hours
		}
		rate := float64(dayErr) / float64(dayReq)
		rep.Points = append(rep.Points, Fig17Point{Day: day + 1, Requests: dayReq, Errors: dayErr, ErrorRate: rate})
		totalReq += dayReq
		totalErr += dayErr
		if rate > rep.MaxRate {
			rep.MaxRate = rate
		}
		fprintf(w, "%-5d %-10d %-8d %-10.4f\n", day+1, dayReq, dayErr, rate*100)
	}
	inj.Quiesce()

	rep.AvgRate = float64(totalErr) / float64(totalReq)
	rep.SLA = 1 - rep.AvgRate
	rep.Crashes, rep.DropEpisodes, rep.RegionOutages = inj.Crashes, inj.DropEpisodes, inj.RegionOutages
	fprintf(w, "\ninjected: %d crashes, %d drop episodes, %d region outages\n",
		rep.Crashes, rep.DropEpisodes, rep.RegionOutages)
	fprintf(w, "max daily error rate = %.4f%% (paper: ~0.025%%), avg = %.4f%% (paper: <0.01%%), SLA = %.4f%% (paper: >=99.99%%)\n",
		rep.MaxRate*100, rep.AvgRate*100, rep.SLA*100)
	return rep, nil
}
