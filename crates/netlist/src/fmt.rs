//! A minimal structural text format for netlists.
//!
//! The format is line-oriented:
//!
//! ```text
//! circuit half_adder
//! input a
//! input b
//! gate w0 XOR2 X1 a b
//! gate w1 AND2 X1 a b
//! output w0 sum
//! output w1 carry
//! end
//! ```
//!
//! `gate <out> <KIND> <DRIVE> <in...>` names a gate by its output net;
//! `dff <q> <DRIVE> <d>` declares a flip-flop. `#` starts a comment.
//! Forward references are allowed (necessary for sequential feedback).

use fbb_device::{CellKind, DriveStrength};
use std::collections::HashMap;

use crate::{Gate, GateId, Net, NetId, Netlist, NetlistError};

/// Serializes a netlist to the text format.
///
/// ```
/// use fbb_netlist::{fmt, generators};
///
/// let nl = generators::ripple_adder("add4", 4, false).expect("generator is valid");
/// let text = fmt::to_string(&nl);
/// let back = fmt::from_str(&text).expect("round-trip parses");
/// assert_eq!(back.gate_count(), nl.gate_count());
/// ```
pub fn to_string(netlist: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("circuit {}\n", netlist.name()));
    for &i in netlist.inputs() {
        out.push_str(&format!("input {}\n", netlist.net(i).name));
    }
    for (_, gate) in netlist.iter_gates() {
        let out_name = &netlist.net(gate.output).name;
        if gate.cell.kind.is_sequential() {
            out.push_str(&format!(
                "dff {} {} {}\n",
                out_name,
                gate.cell.drive,
                netlist.net(gate.inputs[0]).name
            ));
        } else {
            let ins: Vec<&str> = gate
                .inputs
                .iter()
                .map(|&n| netlist.net(n).name.as_str())
                .collect();
            out.push_str(&format!(
                "gate {} {} {} {}\n",
                out_name,
                gate.cell.kind,
                gate.cell.drive,
                ins.join(" ")
            ));
        }
    }
    for &o in netlist.outputs() {
        out.push_str(&format!("output {} {}\n", netlist.net(o).name, netlist.net(o).name));
    }
    out.push_str("end\n");
    out
}

/// Parses a netlist from the text format.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed lines and any structural
/// validation error on the assembled netlist.
pub fn from_str(text: &str) -> Result<Netlist, NetlistError> {
    let mut name = String::from("unnamed");
    let mut nets: Vec<Net> = Vec::new();
    let mut net_ids: HashMap<String, NetId> = HashMap::new();
    let mut gates: Vec<Gate> = Vec::new();
    let mut inputs: Vec<NetId> = Vec::new();
    let mut outputs: Vec<NetId> = Vec::new();
    // (gate index, pin index, net name, line) resolved after all nets exist.
    let mut pending_pins: Vec<(usize, String, usize)> = Vec::new();

    let intern = |nets: &mut Vec<Net>, net_ids: &mut HashMap<String, NetId>, n: &str| -> NetId {
        if let Some(&id) = net_ids.get(n) {
            return id;
        }
        let id = NetId::from_index(nets.len());
        nets.push(Net { name: n.to_owned(), driver: None, sinks: Vec::new() });
        net_ids.insert(n.to_owned(), id);
        id
    };

    let err = |line: usize, message: &str| NetlistError::Parse { line, message: message.to_owned() };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut tok = content.split_whitespace();
        let keyword = tok.next().expect("non-empty line has a first token");
        match keyword {
            "circuit" => {
                name = tok.next().ok_or_else(|| err(line, "missing circuit name"))?.to_owned();
            }
            "input" => {
                let n = tok.next().ok_or_else(|| err(line, "missing input name"))?;
                let id = intern(&mut nets, &mut net_ids, n);
                inputs.push(id);
            }
            "output" => {
                let n = tok.next().ok_or_else(|| err(line, "missing output net"))?;
                let id = intern(&mut nets, &mut net_ids, n);
                if !outputs.contains(&id) {
                    outputs.push(id);
                }
            }
            "gate" | "dff" => {
                let out_name = tok.next().ok_or_else(|| err(line, "missing output net"))?;
                let (kind, drive) = if keyword == "dff" {
                    let d: DriveStrength = tok
                        .next()
                        .ok_or_else(|| err(line, "missing drive strength"))?
                        .parse()
                        .map_err(|_| err(line, "bad drive strength"))?;
                    (CellKind::Dff, d)
                } else {
                    let k: CellKind = tok
                        .next()
                        .ok_or_else(|| err(line, "missing cell kind"))?
                        .parse()
                        .map_err(|_| err(line, "unknown cell kind"))?;
                    let d: DriveStrength = tok
                        .next()
                        .ok_or_else(|| err(line, "missing drive strength"))?
                        .parse()
                        .map_err(|_| err(line, "bad drive strength"))?;
                    (k, d)
                };
                let gate_index = gates.len();
                let out_id = intern(&mut nets, &mut net_ids, out_name);
                if nets[out_id.index()].driver.is_some() {
                    return Err(err(line, &format!("net {out_name} driven twice")));
                }
                nets[out_id.index()].driver = Some(GateId::from_index(gate_index));
                let pins: Vec<String> = tok.map(str::to_owned).collect();
                if pins.len() != kind.input_count() {
                    return Err(err(
                        line,
                        &format!("{} expects {} inputs, got {}", kind, kind.input_count(), pins.len()),
                    ));
                }
                for p in pins {
                    pending_pins.push((gate_index, p, line));
                }
                gates.push(Gate {
                    cell: fbb_device::Cell::new(kind, drive),
                    inputs: Vec::new(),
                    output: out_id,
                });
            }
            "end" => break,
            other => return Err(err(line, &format!("unknown keyword {other}"))),
        }
    }

    for (gate_index, pin_name, line) in pending_pins {
        let id = *net_ids
            .get(&pin_name)
            .ok_or_else(|| err(line, &format!("undeclared net {pin_name}")))?;
        gates[gate_index].inputs.push(id);
        nets[id.index()].sinks.push(GateId::from_index(gate_index));
    }

    let nl = Netlist { name, gates, nets, inputs, outputs };
    nl.validate()?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;
    use fbb_device::{CellKind, DriveStrength};

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("s");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.gate(CellKind::Xor2, DriveStrength::X2, &[a, c]).unwrap();
        let q = b.dff(DriveStrength::X1, x).unwrap();
        b.output(q, "q");
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let nl = sample();
        let text = to_string(&nl);
        let back = from_str(&text).unwrap();
        assert_eq!(back.name(), "s");
        assert_eq!(back.gate_count(), nl.gate_count());
        assert_eq!(back.dff_count(), 1);
        assert_eq!(back.inputs().len(), 2);
        assert_eq!(back.outputs().len(), 1);
        back.validate().unwrap();
    }

    #[test]
    fn parse_rejects_double_driver() {
        let text = "circuit x\ninput a\ngate w INV X1 a\ngate w INV X1 a\nend\n";
        assert!(matches!(from_str(text), Err(NetlistError::Parse { line: 4, .. })));
    }

    #[test]
    fn parse_rejects_bad_arity() {
        let text = "circuit x\ninput a\ngate w NAND2 X1 a\nend\n";
        assert!(from_str(text).is_err());
    }

    #[test]
    fn parse_rejects_unknown_keyword() {
        assert!(from_str("blah\n").is_err());
    }

    #[test]
    fn parse_rejects_undeclared_net() {
        let text = "circuit x\ngate w INV X1 ghost\nend\n";
        // `ghost` becomes a declared net via interning but has no driver and
        // is not an input -> validation failure.
        assert!(from_str(text).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\ncircuit x\n\ninput a # trailing\ngate w INV X1 a\noutput w y\nend\n";
        let nl = from_str(text).unwrap();
        assert_eq!(nl.gate_count(), 1);
    }

    #[test]
    fn repeated_output_line_lists_the_net_once() {
        let text = "circuit x\ninput a\ngate w INV X1 a\ngate v INV X1 w\n\
                    output w w\noutput v v\noutput w w\nend\n";
        let nl = from_str(text).unwrap();
        let names: Vec<&str> = nl.outputs().iter().map(|&o| nl.net(o).name.as_str()).collect();
        assert_eq!(names, ["w", "v"]);
    }

    #[test]
    fn forward_references_allowed() {
        // DFF feedback: inv reads q before the dff line declares it? Here the
        // gate line references q first.
        let text = "circuit fb\ngate nq INV X1 q\ndff q X1 nq\noutput q q\nend\n";
        let nl = from_str(text).unwrap();
        assert_eq!(nl.dff_count(), 1);
        nl.validate().unwrap();
    }
}
