//! Terminal visualizations of simulation results: per-device memory
//! charts (the hand-drawn curves under the paper's Fig. 1) and an
//! execution Gantt (its timeline boxes).

use crate::report::SimReport;
use mpress_graph::{OpKind, TrainingGraph};
use mpress_hw::{Bytes, Secs};
use std::fmt::Write as _;

const SHADES: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders each device's memory-usage timeline as a sparkline scaled to
/// `capacity` (full block = at capacity), `width` characters wide.
///
/// Requires the report to have been produced with
/// [`SimConfig::track_timeline`](crate::SimConfig) enabled; returns a
/// hint string otherwise.
pub fn memory_chart(report: &SimReport, capacity: Bytes, width: usize) -> String {
    let Some(timelines) = &report.timelines else {
        return "(enable SimConfig::track_timeline to chart memory)".to_owned();
    };
    let mut out = String::new();
    let span = report.makespan.max(f64::MIN_POSITIVE);
    for (dev, timeline) in timelines.iter().enumerate() {
        let mut row = String::with_capacity(width);
        let mut level = Bytes::ZERO;
        let mut idx = 0;
        for col in 0..width {
            let t = span * (col as f64 + 1.0) / width as f64;
            // Track the max level within the bin for peak visibility.
            let mut bin_max = level;
            while idx < timeline.len() && timeline[idx].0 <= t {
                level = timeline[idx].1;
                bin_max = bin_max.max(level);
                idx += 1;
            }
            let frac = (bin_max.as_f64() / capacity.as_f64()).clamp(0.0, 1.0);
            let shade = (frac * (SHADES.len() - 1) as f64).round() as usize;
            row.push(SHADES[shade]);
        }
        let _ = writeln!(
            out,
            "GPU{dev} |{row}| peak {:>10}",
            report
                .device_peak
                .get(dev)
                .copied()
                .unwrap_or(Bytes::ZERO)
                .to_string()
        );
    }
    out
}

/// Renders per-device execution lanes: `F` forward, `B` backward, `U`
/// optimizer, `s` send, `.` idle — one character per time bin.
///
/// `stage_of_device` maps each device row back to the stage whose ops it
/// executed (the inverse of the device map used in the run).
pub fn gantt(
    report: &SimReport,
    graph: &TrainingGraph,
    stage_of_device: &[usize],
    width: usize,
) -> String {
    let span: Secs = report.makespan.max(f64::MIN_POSITIVE);
    let mut lanes = vec![vec!['.'; width]; stage_of_device.len()];
    for op in graph.ops() {
        let Some(device) = stage_of_device.iter().position(|&s| s == op.stage) else {
            continue;
        };
        let glyph = match op.kind {
            OpKind::Forward => 'F',
            OpKind::Backward => 'B',
            OpKind::OptimizerStep => 'U',
            OpKind::Send | OpKind::Recv => 's',
        };
        let start = report.op_start[op.id.index()];
        let end = report.op_end[op.id.index()];
        let a = ((start / span) * width as f64).floor() as usize;
        let b = (((end / span) * width as f64).ceil() as usize).min(width);
        for cell in lanes[device].iter_mut().take(b).skip(a.min(width)) {
            // Compute beats comm in a shared bin.
            if *cell == '.' || (*cell == 's' && glyph != 's') {
                *cell = glyph;
            }
        }
    }
    let mut out = String::new();
    for (dev, lane) in lanes.iter().enumerate() {
        let _ = writeln!(out, "GPU{dev} |{}|", lane.iter().collect::<String>());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceMap, SimConfig, Simulator};
    use mpress_compaction::InstrumentationPlan;
    use mpress_hw::Machine;
    use mpress_model::{ModelFamily, PrecisionPolicy, TransformerConfig};
    use mpress_pipeline::{PipelineJob, ScheduleKind};

    fn run() -> (SimReport, TrainingGraph) {
        let job = PipelineJob::builder()
            .model(
                TransformerConfig::builder(ModelFamily::Gpt)
                    .layers(8)
                    .hidden(512)
                    .seq_len(256)
                    .build(),
            )
            .machine(Machine::dgx1())
            .schedule(ScheduleKind::Dapple)
            .stages(4)
            .microbatch_size(2)
            .microbatches(6)
            .precision(PrecisionPolicy::mixed())
            .build()
            .unwrap();
        let lowered = job.lower().unwrap();
        let report = Simulator::new(
            job.machine(),
            &lowered.graph,
            &InstrumentationPlan::new(),
            DeviceMap::identity(4),
        )
        .with_config(SimConfig::default().track_timeline(true))
        .run()
        .unwrap();
        (report, lowered.graph)
    }

    #[test]
    fn memory_chart_has_one_lane_per_device() {
        let (report, _) = run();
        // Scale to the observed peak so the lanes use the shade range.
        let chart = memory_chart(&report, report.max_device_peak(), 60);
        assert_eq!(chart.lines().count(), 8);
        assert!(chart.contains("GPU0"));
        // Stage 0 (the hottest) must saturate the scale somewhere...
        let lane0 = chart.lines().next().unwrap();
        assert!(lane0.contains('█'), "{lane0}");
        // ...and show more dark cells than the lightest-loaded stage 3.
        let dark = |lane: &str| lane.chars().filter(|&c| c == '█' || c == '▇').count();
        let lane3 = chart.lines().nth(3).unwrap();
        assert!(dark(lane0) > dark(lane3), "{lane0}\n{lane3}");
    }

    #[test]
    fn memory_chart_without_timelines_hints() {
        let (mut report, _) = run();
        report.timelines = None;
        let chart = memory_chart(&report, Bytes::gib(32), 40);
        assert!(chart.contains("track_timeline"));
    }

    #[test]
    fn gantt_shows_pipeline_ramp() {
        let (report, graph) = run();
        let art = gantt(&report, &graph, &[0, 1, 2, 3], 80);
        assert_eq!(art.lines().count(), 4);
        // The last stage idles at the start (pipeline fill): its lane
        // begins with '.', the first stage's with 'F'.
        let first = art.lines().next().unwrap();
        let last = art.lines().last().unwrap();
        assert!(first.contains("|F"), "{first}");
        assert!(last.contains("|.."), "{last}");
    }
}
