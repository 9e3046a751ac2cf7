module unannotated (clk, x, q);
  input clk, x;
  output q;
  reg q;
  always @(posedge clk) q <= x;
endmodule
