// s toggles every cycle; while s and a are high, p and q chase each
// other through an inverter and the netlist never settles.
module osc(clk, rst, a, y);
  input clk, rst;
  input a; // avp free
  output y;
  // avp clock clk
  // avp reset rst
  reg s; // avp state
  wire p, q;
  assign p = s ? ~q : 1'b0;
  assign q = p & a;
  assign y = q;
  always @(posedge clk) if (rst) s <= 1'b0; else s <= ~s;
endmodule
