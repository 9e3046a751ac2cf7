// The state net q stays defined on every transition, but the output y
// goes X whenever q holds 3: the pristine design cannot supply the
// output values a lockstep comparison checks against.
module xout (clk, rst, a, y);
  input clk, rst;
  input [1:0] a;
  output [1:0] y;
  reg [1:0] q; // avp state
  // avp clock clk
  // avp reset rst
  // avp free a
  always @(posedge clk) begin
    if (rst) q <= 2'b00;
    else q <= a;
  end
  assign y = (q == 2'b11) ? 2'bxx : q;
endmodule
